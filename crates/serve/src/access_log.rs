//! Structured JSONL access logs reusing the telemetry journal schema.
//!
//! Every record is one [`vstar_telemetry::JournalEvent`] rendered as a single
//! JSON line, so the daemon's access log and the pipeline's event journal
//! share one schema and one toolchain:
//!
//! * kind `"access"` — one request: `path` is `<grammar>@v<version>`, `name`
//!   is the connection label, `fields` carry `accepted` (0/1), `bytes`,
//!   `wall_us` and the registry `generation` the request was served at.
//! * kind `"reload"` — one hot reload: `path` is the grammar name, `name` is
//!   `"reload"`, `fields` carry `generation`, `version`, `new_hash` and
//!   (after the first publish) `old_hash` as raw FNV-64 values.
//!
//! `wall_us` is wall-clock and therefore *operational only*: determinism
//! gates count records and read the deterministic fields, never the latency.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

use vstar_telemetry::JournalEvent;

/// The shared sink behind an in-memory [`AccessLog`].
#[derive(Clone, Debug, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// The bytes written so far.
    #[must_use]
    pub fn contents(&self) -> Vec<u8> {
        self.0.lock().expect("no panics under this lock").clone()
    }

    /// The records written so far, parsed back from their JSON lines, in
    /// `seq` order.
    ///
    /// # Panics
    ///
    /// If the buffer holds anything but [`AccessLog`] lines.
    #[must_use]
    pub fn records(&self) -> Vec<JournalEvent> {
        let text = String::from_utf8(self.contents()).expect("access logs are UTF-8");
        text.lines()
            .map(|line| {
                let doc = serde_json::from_str(line).expect("one JSON record per line");
                let u64_of = |v: &serde::Value| v.as_u64().expect("integer field");
                let str_of = |key| doc.get(key).and_then(serde::Value::as_str).expect(key);
                let fields = match doc.get("fields") {
                    Some(serde::Value::Object(fields)) => {
                        fields.iter().map(|(k, v)| (k.clone(), u64_of(v))).collect()
                    }
                    _ => panic!("record without fields: {line}"),
                };
                JournalEvent {
                    seq: u64_of(doc.get("seq").expect("seq")),
                    kind: str_of("kind").to_string(),
                    path: str_of("path").to_string(),
                    name: str_of("name").to_string(),
                    fields,
                }
            })
            .collect()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("no panics under this lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct LogInner {
    sink: Box<dyn Write + Send>,
    seq: u64,
}

/// A thread-safe JSONL access log: every record goes to the sink as one JSON
/// line and nowhere else; gates read records back with [`SharedBuf::records`].
#[derive(Clone)]
pub struct AccessLog {
    inner: Arc<Mutex<LogInner>>,
}

impl std::fmt::Debug for AccessLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("no panics under this lock");
        f.debug_struct("AccessLog").field("records", &inner.seq).finish()
    }
}

impl AccessLog {
    /// A log writing JSONL to `sink`.
    #[must_use]
    pub fn new(sink: Box<dyn Write + Send>) -> Self {
        AccessLog { inner: Arc::new(Mutex::new(LogInner { sink, seq: 0 })) }
    }

    /// An in-memory log; the returned [`SharedBuf`] reads back the JSONL.
    #[must_use]
    pub fn in_memory() -> (Self, SharedBuf) {
        let buf = SharedBuf::default();
        (Self::new(Box::new(buf.clone())), buf)
    }

    /// Appends one record, assigning the next `seq` and writing its JSON
    /// line. Sink write failures are swallowed (logging must never take the
    /// serve path down).
    pub fn push(&self, kind: &str, path: String, name: String, fields: BTreeMap<String, u64>) {
        let mut inner = self.inner.lock().expect("no panics under this lock");
        let event = JournalEvent { seq: inner.seq, kind: kind.to_string(), path, name, fields };
        inner.seq += 1;
        let line = serde_json::to_string(&event).expect("journal events serialize");
        let _ = writeln!(inner.sink, "{line}");
    }

    /// One `"access"` record: a request against `grammar`@`version` from
    /// `connection`, with its verdict, payload size, latency and the registry
    /// generation it was served at.
    #[allow(clippy::too_many_arguments)]
    pub fn access(
        &self,
        grammar: &str,
        version: u64,
        connection: &str,
        accepted: bool,
        bytes: u64,
        wall_us: u64,
        generation: u64,
    ) {
        let mut fields = BTreeMap::new();
        fields.insert("accepted".to_string(), u64::from(accepted));
        fields.insert("bytes".to_string(), bytes);
        fields.insert("wall_us".to_string(), wall_us);
        fields.insert("generation".to_string(), generation);
        self.push("access", format!("{grammar}@v{version}"), connection.to_string(), fields);
    }

    /// One `"reload"` record mirroring a [`crate::ReloadAudit`] event.
    pub fn reload(&self, audit: &crate::ReloadAudit) {
        let mut fields = BTreeMap::new();
        fields.insert("generation".to_string(), audit.generation);
        fields.insert("version".to_string(), audit.version);
        fields.insert("new_hash".to_string(), audit.new_hash);
        if let Some(old) = audit.old_hash {
            fields.insert("old_hash".to_string(), old);
        }
        self.push("reload", audit.grammar.clone(), "reload".to_string(), fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_render_one_json_line_each_in_seq_order() {
        let (log, buf) = AccessLog::in_memory();
        log.access("json", 1, "c0", true, 42, 17, 3);
        log.access("xml", 2, "c1", false, 7, 5, 3);
        log.reload(&crate::ReloadAudit {
            generation: 4,
            grammar: "json".into(),
            version: 2,
            old_hash: Some(0xdead),
            new_hash: 0xbeef,
        });

        let records = buf.records();
        assert_eq!(records.len(), 3);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
        assert_eq!(records[0].kind, "access");
        assert_eq!(records[0].path, "json@v1");
        assert_eq!(records[0].name, "c0");
        assert_eq!(records[0].fields.get("accepted"), Some(&1));
        assert_eq!(records[0].fields.get("bytes"), Some(&42));
        assert_eq!(records[1].fields.get("accepted"), Some(&0));
        assert_eq!(records[2].kind, "reload");
        assert_eq!(records[2].fields.get("old_hash"), Some(&0xdead));
        assert_eq!(records[2].fields.get("new_hash"), Some(&0xbeef));

        let text = String::from_utf8(buf.contents()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "not JSONL: {line}");
        }
        // First-publish reloads omit old_hash entirely.
        let (log, buf) = AccessLog::in_memory();
        log.reload(&crate::ReloadAudit {
            generation: 1,
            grammar: "g".into(),
            version: 1,
            old_hash: None,
            new_hash: 1,
        });
        assert!(!buf.records()[0].fields.contains_key("old_hash"));
    }

    #[test]
    fn log_is_shared_across_clones() {
        let (log, buf) = AccessLog::in_memory();
        let clone = log.clone();
        log.access("g", 1, "a", true, 1, 1, 1);
        clone.access("g", 1, "b", false, 2, 1, 1);
        let records = buf.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].seq, 1);
        assert_eq!(format!("{log:?}"), "AccessLog { records: 2 }");
    }
}
