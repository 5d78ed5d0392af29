//! The one durable journal format under the sweep checkpoint, the
//! `cesimd` job WAL, and the telemetry sink: a header line
//! `{"<tag>": 1, …}`, then one JSON record per line.
//!
//! Each journal kind is a [`Format`]: its header tag and a decoder for
//! its records. The line layout, the torn-tail rule, and the append path
//! live here once, so every loader and `fsck` read a journal through the
//! same [`Format::parse`], and a failed append is repaired the same way
//! in all three journals.
//!
//! **The torn-tail rule.** A line counts once its newline is on disk.
//! Only the final line may be damaged (cut short, missing its newline,
//! or failing to decode); it is dropped. Damage on any earlier line, a
//! blank line included, makes the file corrupt: loaders discard it and
//! `fsck` quarantines it. An empty file, or a lone torn header, is an
//! empty journal.
//!
//! **The append path.** [`Appender::append`] writes each record in one
//! write through the [`crate::iofault`] seam, plus one fsync for a
//! durable journal (the WAL). If the write or the fsync fails, it
//! truncates the file back to its last complete record before returning
//! the error, so the next record never lands on a torn line. If that
//! truncation fails too, the handle refuses every later append, and the
//! torn line left behind is the final one, which the rule drops.

use std::fs::File;
use std::path::Path;

use crate::iofault;
use crate::json::Json;

/// Structural health of a journal file, as `fsck` reports it: whether
/// every line parses as its format requires, not whether it belongs to
/// any particular sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalClass {
    /// Header and every record line parse.
    Valid,
    /// Only the final line is damaged, or the journal is empty.
    TornTail,
    /// A line before the final one is damaged.
    Corrupt,
}

/// One journal kind: its header tag and its record decoder.
#[derive(Debug, Clone, Copy)]
pub struct Format<R> {
    /// The header's tag key; its value is the format version, 1.
    pub tag: &'static str,
    /// Decodes one record line; `None` marks the line damaged.
    pub decode: fn(Json) -> Option<R>,
}

/// A journal that passed [`Format::parse`].
#[derive(Debug)]
pub struct Parsed<R> {
    /// The header line; `None` for an empty journal.
    pub header: Option<Json>,
    /// Every complete record, in file order.
    pub records: Vec<R>,
    /// Bytes through the last complete line: where the next append goes
    /// (short of the file's length exactly when a torn tail was dropped).
    pub len: u64,
}

impl<R> Format<R> {
    /// The header line (no newline): the tag, then `fields`, a
    /// comma-separated list of `"key": value` pairs.
    pub fn header(&self, fields: &str) -> String {
        format!("{{\"{}\": 1, {fields}}}", self.tag)
    }

    /// Parses a journal under the torn-tail rule.
    ///
    /// # Errors
    ///
    /// A message naming the first damaged line, when it is not the last.
    pub fn parse(&self, bytes: &[u8]) -> Result<Parsed<R>, String> {
        let mut parsed = Parsed { header: None, records: Vec::new(), len: 0 };
        let mut lines = bytes.split_inclusive(|&b| b == b'\n').enumerate().peekable();
        while let Some((i, line)) = lines.next() {
            let doc = line
                .strip_suffix(b"\n")
                .and_then(|body| std::str::from_utf8(body).ok())
                .and_then(|body| Json::parse(body).ok());
            let ok = match doc {
                Some(doc) if i == 0 => {
                    let tagged = doc.at(self.tag).and_then(Json::as_u64) == Some(1);
                    parsed.header = tagged.then_some(doc);
                    tagged
                }
                Some(doc) => (self.decode)(doc).map(|r| parsed.records.push(r)).is_some(),
                None => false,
            };
            if !ok {
                if lines.peek().is_some() {
                    return Err(format!("line {}: damaged before the final line", i + 1));
                }
                break; // the torn tail
            }
            parsed.len += line.len() as u64;
        }
        Ok(parsed)
    }

    /// The structural verdict `fsck` reports for a journal of this kind.
    pub fn classify(&self, bytes: &[u8]) -> JournalClass {
        match self.parse(bytes) {
            Ok(p) if p.header.is_some() && p.len == bytes.len() as u64 => JournalClass::Valid,
            Ok(_) => JournalClass::TornTail, // incl. an empty journal
            Err(_) => JournalClass::Corrupt,
        }
    }
}

/// An open journal, positioned after its last complete record.
#[derive(Debug)]
pub struct Appender {
    file: File,
    /// Bytes of complete lines on disk: where a failed append rolls back.
    len: u64,
    /// Fsync every record (the WAL's durability boundary).
    fsync: bool,
    /// A rollback failed, so the file may end in a torn line.
    broken: bool,
}

impl Appender {
    /// Creates (truncating) a journal holding only `header`, and its
    /// directory; records appended later get one fsync each when `fsync`
    /// is set.
    ///
    /// # Errors
    ///
    /// The directory, create, or header-write error.
    pub fn create(path: &Path, header: &str, fsync: bool) -> std::io::Result<Appender> {
        crate::checkpoint::create_parent(path)?;
        let mut file = iofault::create(path)?;
        let line = format!("{header}\n");
        iofault::write_all(&mut file, line.as_bytes())?;
        Ok(Appender { file, len: line.len() as u64, fsync, broken: false })
    }

    /// Reopens a journal to append after its first `len` bytes
    /// ([`Parsed::len`]), first truncating a torn tail off through the
    /// fault seam.
    ///
    /// # Errors
    ///
    /// The open, stat, or truncation error.
    pub fn resume(path: &Path, len: u64, fsync: bool) -> std::io::Result<Appender> {
        let mut file = iofault::open_append(path)?;
        if file.metadata()?.len() != len {
            iofault::truncate(&mut file, len)?;
        }
        Ok(Appender { file, len, fsync, broken: false })
    }

    /// Appends `record` (one line, no newline), rolling a failed write or
    /// fsync back to the last complete record before the error returns.
    ///
    /// # Errors
    ///
    /// The write or fsync error; after a failed rollback, a refusal that
    /// writes nothing.
    pub fn append(&mut self, record: impl Into<String>) -> std::io::Result<()> {
        if self.broken {
            return Err(std::io::Error::other("journal closed: a failed append's rollback failed"));
        }
        let mut line = record.into();
        line.push('\n');
        let written = iofault::write_all(&mut self.file, line.as_bytes())
            .and_then(|()| if self.fsync { iofault::sync(&self.file) } else { Ok(()) });
        match written {
            Ok(()) => self.len += line.len() as u64,
            Err(_) => self.broken = iofault::truncate(&mut self.file, self.len).is_err(),
        }
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iofault::{with_plan, FailPlan, FaultClass};

    /// A toy format: `{"n": k}` records.
    const TOY: Format<u64> = Format { tag: "toy", decode: |doc| doc.at("n")?.as_u64() };

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ce-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("toy.jsonl")
    }

    /// A torn write is rolled back on the same handle: the next record
    /// lands on a clean line, and the journal stays valid.
    #[test]
    fn failed_append_rolls_back_and_the_handle_keeps_working() {
        let path = tmp("rollback");
        let mut log = Appender::create(&path, &TOY.header("\"x\": 0"), true).unwrap();
        log.append("{\"n\": 1}").unwrap();
        for class in [FaultClass::TornWrite, FaultClass::Eio, FaultClass::FailedFsync] {
            // Op 0 is the write, op 1 the fsync.
            let index = u64::from(class == FaultClass::FailedFsync);
            let plan = FailPlan::one(index, class);
            let (outcome, ops) = with_plan(plan, || log.append("{\"n\": 2}"));
            assert!(outcome.is_err(), "{class:?} surfaces");
            assert_eq!(ops, index + 2, "{class:?}: the rollback is one more seam op");
        }
        log.append("{\"n\": 3}").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(TOY.classify(&bytes), JournalClass::Valid);
        assert_eq!(TOY.parse(&bytes).unwrap().records, vec![1, 3]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// `resume` cuts a torn tail off before the first append, through the
    /// seam, and leaves an intact journal alone.
    #[test]
    fn resume_truncates_only_a_torn_tail() {
        let path = tmp("resume");
        let text = format!("{}\n{{\"n\": 1}}\n{{\"n\": 2", TOY.header("\"x\": 0"));
        std::fs::write(&path, &text).unwrap();
        assert_eq!(TOY.classify(text.as_bytes()), JournalClass::TornTail);
        let parsed = TOY.parse(text.as_bytes()).unwrap();
        let ((), ops) = with_plan(FailPlan::default(), || {
            let mut log = Appender::resume(&path, parsed.len, false).unwrap();
            log.append("{\"n\": 3}").unwrap();
        });
        assert_eq!(ops, 3, "open, truncate, write");
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(TOY.classify(&bytes), JournalClass::Valid);
        let parsed = TOY.parse(&bytes).unwrap();
        assert_eq!(parsed.records, vec![1, 3]);

        let ((), ops) = with_plan(FailPlan::default(), || {
            Appender::resume(&path, parsed.len, false).unwrap();
        });
        assert_eq!(ops, 1, "an intact journal is only opened");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
