//! The write-ahead journal behind `faultlib serve --journal DIR`:
//! crash-durable job state as a JSON-lines file, written with the same
//! hand-rolled [`Json`] the wire protocol uses.
//!
//! # Record stream
//!
//! One JSON object per line, in commit order:
//!
//! - `{"t":"open","gen":G}` — a recovery generation marker, appended
//!   once per session (see below);
//! - `{"t":"admit","id":N,"request":{...}}` — a job was admitted; the
//!   full request is stored so recovery can rebuild the kernel from
//!   scratch (recompiling the netlist through the ordinary cache path);
//! - `{"t":"leg","id":N,"legs":L,"retries":R,"snapshot":...}` — a leg
//!   returned at a clean checkpoint boundary; `snapshot` is the
//!   kernel's [`JobKernel::snapshot`](super::JobKernel::snapshot);
//! - `{"t":"done","id":N,"record":{...}}` — the job reached a terminal
//!   state; `record` is the job's
//!   [`JobRecord::line`](super::JobRecord::line), byte for byte — the
//!   line stdout printed. Replay encodes each recovered record once, and
//!   `results` and compaction reuse that line.
//!
//! # Durability contract
//!
//! Every append is one `write` of `line + "\n"` followed by an
//! `fdatasync`; the engine appends **before** acknowledging anything to
//! the client, so an acked admission and an emitted record are always
//! durable. A crash (including `kill -9` and the injected
//! [`CrashPoint`] aborts) can therefore lose only (a) work since the
//! last committed leg record — recomputed bit-identically on resume,
//! because checkpoints plus the absolute seed+counter `PatternSource`
//! addressing make the replay exact — and (b) records that were mid-
//! write, which appear as a **torn final line**. Recovery tolerates
//! exactly that: an unparsable final line is discarded, an unparsable
//! interior line is a corrupt journal and refuses loudly.
//!
//! [`Journal::open`] replays the stream, then **compacts** it — live
//! jobs keep their admission plus latest leg snapshot, finished jobs
//! keep their terminal record — and rewrites the file via temp file +
//! rename + fsync (file and directory), so compaction is atomic: a
//! crash leaves either the old journal or the new one, never a mix.
//!
//! # Crash injection and the generation counter
//!
//! Appends probe the engine's [`FaultPlan`] for an injected process
//! crash (`FaultPlan::crash_fault`) — before the write, mid-write
//! (writing a strict prefix, the torn-line generator), or after it.
//! The probe site mixes in the journal's **generation** (how many times
//! this journal has been opened), so a restarted process rolls a fresh
//! crash schedule: committed records shrink the remaining work while
//! re-rolled schedules guarantee a crash-at-every-append plan cannot
//! pin recovery in place. The generation bump itself is committed by
//! the compaction rewrite, which never probes — recovery always makes
//! that much progress.

#![deny(clippy::unwrap_used)]
// Durable path (dynlint zone: durable): a panic mid-append can
// fabricate a torn record the recovery logic then trusts, so even
// "impossible" unwraps are compiler-rejected in this module.
use crate::chaos::{CrashPoint, FaultPlan};
use crate::service::json::{write_object, Json};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

/// The journal file name inside the `--journal` directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// A crash-durable append-only record stream in `DIR/journal.jsonl`.
pub struct Journal {
    file: File,
    generation: u64,
    appends: u64,
    plan: Option<Arc<FaultPlan>>,
}

/// One not-yet-terminal job reconstructed from the journal.
#[derive(Debug, Clone)]
pub struct RecoveredJob {
    /// The id the job was originally admitted under (preserved so
    /// replayed records are byte-identical).
    pub id: u64,
    /// The original submission request, verbatim.
    pub request: Json,
    /// The latest committed kernel snapshot, if any leg finished.
    pub snapshot: Option<Json>,
    /// Legs run before the crash (as of the latest leg record).
    pub legs: u32,
    /// Retries consumed before the crash.
    pub retries: u32,
}

/// Everything [`Journal::open`] reconstructed from an existing journal.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// Admitted jobs without a terminal record, in admission order.
    pub jobs: Vec<RecoveredJob>,
    /// Terminal records `(id, line)` in admission order, each the
    /// record's encoded [`JobRecord::line`](super::JobRecord::line).
    pub terminal: Vec<(u64, String)>,
    /// The highest job id ever admitted (0 when the journal is fresh).
    pub max_id: u64,
    /// `true` when a torn final line was discarded.
    pub torn_tail: bool,
    /// The generation this session runs as (1 for a fresh journal).
    pub generation: u64,
}

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Journal {
    /// Opens (creating if necessary) the journal in `dir`, replays and
    /// compacts any existing records, and returns the journal plus what
    /// it recovered. `plan` is the fault plan probed for injected
    /// crashes on every subsequent append (`None` = no injection).
    ///
    /// # Errors
    ///
    /// I/O failures, or a corrupt journal: an unparsable line anywhere
    /// but the final position, an unknown record type, or a record
    /// missing its required fields. A torn *final* line is not an error
    /// — it is the expected signature of a crash mid-append.
    pub fn open(dir: &Path, plan: Option<Arc<FaultPlan>>) -> io::Result<(Journal, Recovery)> {
        fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let mut recovery = match fs::read(&path) {
            Ok(bytes) => Self::replay(&bytes)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Recovery::default(),
            Err(e) => return Err(e),
        };
        recovery.generation += 1;

        // Compact + persist the generation bump atomically: temp file,
        // fdatasync, rename, directory fsync. No crash probes here —
        // every recovery commits at least its generation.
        let tmp = dir.join(format!("{JOURNAL_FILE}.tmp"));
        {
            let mut text = String::new();
            write_object(
                &mut text,
                [
                    ("t", &Json::str("open")),
                    ("gen", &Json::num(recovery.generation)),
                ],
            );
            text.push('\n');
            for (id, record) in &recovery.terminal {
                push_done(&mut text, *id, record);
            }
            for job in &recovery.jobs {
                push_admit(&mut text, job.id, &job.request);
                if let Some(snapshot) = &job.snapshot {
                    push_leg(&mut text, job.id, job.legs, job.retries, snapshot);
                }
            }
            let mut out = File::create(&tmp)?;
            out.write_all(text.as_bytes())?;
            out.sync_data()?;
        }
        fs::rename(&tmp, &path)?;
        // Persist the rename itself (POSIX: fsync the directory).
        File::open(dir)?.sync_all()?;

        let file = OpenOptions::new().append(true).open(&path)?;
        let journal = Journal {
            file,
            generation: recovery.generation,
            appends: 0,
            plan,
        };
        Ok((journal, recovery))
    }

    /// Replays raw journal bytes into a [`Recovery`] (generation not
    /// yet bumped). Split out for fixture tests.
    fn replay(bytes: &[u8]) -> io::Result<Recovery> {
        let mut recovery = Recovery::default();
        let mut segments = bytes.split(|&b| b == b'\n').peekable();
        while let Some(segment) = segments.next() {
            let is_last = segments.peek().is_none();
            if segment.is_empty() {
                continue;
            }
            let parsed = std::str::from_utf8(segment)
                .ok()
                .and_then(|text| Json::parse(text).ok());
            let Some(record) = parsed else {
                if is_last {
                    // The torn tail of a crash mid-append: everything
                    // before it committed, the tail record did not.
                    recovery.torn_tail = true;
                    break;
                }
                return Err(corrupt("journal: unparsable record before the final line"));
            };
            recovery.apply(&record)?;
        }
        Ok(recovery)
    }

    /// Appends (and syncs) a job-admission record.
    ///
    /// # Errors
    ///
    /// Propagates write/sync failures.
    pub fn record_admit(&mut self, id: u64, request: &Json) -> io::Result<()> {
        let mut line = String::new();
        push_admit(&mut line, id, request);
        self.append(line.as_bytes())
    }

    /// Appends (and syncs) a leg-completion record carrying the
    /// kernel's committed snapshot.
    ///
    /// # Errors
    ///
    /// Propagates write/sync failures.
    pub fn record_leg(
        &mut self,
        id: u64,
        legs: u32,
        retries: u32,
        snapshot: Json,
    ) -> io::Result<()> {
        let mut line = String::new();
        push_leg(&mut line, id, legs, retries, &snapshot);
        self.append(line.as_bytes())
    }

    /// Appends (and syncs) a terminal record given as a tree; encodes it
    /// and appends it as `record_done_line` does.
    /// Only perfbench's replay calls this; the engine appends records it
    /// has already encoded.
    ///
    /// # Errors
    ///
    /// Propagates write/sync failures.
    pub fn record_done(&mut self, id: u64, record: &Json) -> io::Result<()> {
        let mut encoded = String::new();
        record.write_to(&mut encoded);
        self.record_done_line(id, &encoded)
    }

    /// Appends (and syncs) a terminal record given as its encoded line
    /// ([`JobRecord::line`](super::JobRecord::line)), which the `done`
    /// record wraps as it is.
    ///
    /// # Errors
    ///
    /// Propagates write/sync failures.
    pub(crate) fn record_done_line(&mut self, id: u64, record: &str) -> io::Result<()> {
        let mut line = String::with_capacity(record.len() + 40);
        push_done(&mut line, id, record);
        self.append(line.as_bytes())
    }

    /// One committed append of `line` (newline included), written then
    /// `fdatasync`ed, with the [`FaultPlan`] crash probe around the
    /// write.
    fn append(&mut self, line: &[u8]) -> io::Result<()> {
        let site = self
            .generation
            .wrapping_mul(0x1_0000_0000)
            .wrapping_add(self.appends);
        self.appends += 1;
        match self.plan.as_deref().and_then(|p| p.crash_fault(site)) {
            None => {
                self.file.write_all(line)?;
                self.file.sync_data()?;
                Ok(())
            }
            Some(CrashPoint::BeforeWrite) => std::process::abort(),
            Some(CrashPoint::TornWrite) => {
                // A strict, non-empty prefix: the torn final line the
                // recovery path must tolerate.
                let cut = (line.len() / 2).max(1).min(line.len() - 1);
                let _ = self.file.write_all(&line[..cut]);
                let _ = self.file.sync_data();
                std::process::abort();
            }
            Some(CrashPoint::AfterWrite) => {
                let _ = self.file.write_all(line);
                let _ = self.file.sync_data();
                std::process::abort();
            }
        }
    }
}

impl Recovery {
    /// Folds one parsed record into the recovery state.
    fn apply(&mut self, record: &Json) -> io::Result<()> {
        let id = || {
            record
                .get("id")
                .and_then(Json::as_u64)
                .ok_or_else(|| corrupt("journal: record missing \"id\""))
        };
        match record.get("t").and_then(Json::as_str) {
            Some("open") => {
                let gen = record
                    .get("gen")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| corrupt("journal: open record missing \"gen\""))?;
                self.generation = self.generation.max(gen);
            }
            Some("admit") => {
                let id = id()?;
                let request = record
                    .get("request")
                    .ok_or_else(|| corrupt("journal: admit record missing \"request\""))?;
                self.max_id = self.max_id.max(id);
                self.jobs.push(RecoveredJob {
                    id,
                    request: request.clone(),
                    snapshot: None,
                    legs: 0,
                    retries: 0,
                });
            }
            Some("leg") => {
                let id = id()?;
                let job =
                    self.jobs.iter_mut().find(|j| j.id == id).ok_or_else(|| {
                        corrupt(format!("journal: leg record for unknown job {id}"))
                    })?;
                let count = |k: &str| {
                    record
                        .get(k)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| corrupt(format!("journal: leg record missing {k:?}")))
                };
                job.legs = count("legs")? as u32;
                job.retries = count("retries")? as u32;
                job.snapshot = Some(
                    record
                        .get("snapshot")
                        .cloned()
                        .ok_or_else(|| corrupt("journal: leg record missing \"snapshot\""))?,
                );
            }
            Some("done") => {
                let id = id()?;
                let payload = record
                    .get("record")
                    .ok_or_else(|| corrupt("journal: done record missing \"record\""))?;
                self.jobs.retain(|j| j.id != id);
                self.max_id = self.max_id.max(id);
                let mut line = String::new();
                payload.write_to(&mut line);
                self.terminal.push((id, line));
            }
            Some(other) => {
                return Err(corrupt(format!("journal: unknown record type {other:?}")));
            }
            None => return Err(corrupt("journal: record missing \"t\"")),
        }
        Ok(())
    }
}

/// Appends `{"t":"admit","id":N,"request":{...}}` and a newline.
fn push_admit(out: &mut String, id: u64, request: &Json) {
    write_object(
        out,
        [
            ("t", &Json::str("admit")),
            ("id", &Json::num(id)),
            ("request", request),
        ],
    );
    out.push('\n');
}

/// Appends `{"t":"leg","id":N,"legs":L,"retries":R,"snapshot":...}` and
/// a newline.
fn push_leg(out: &mut String, id: u64, legs: u32, retries: u32, snapshot: &Json) {
    write_object(
        out,
        [
            ("t", &Json::str("leg")),
            ("id", &Json::num(id)),
            ("legs", &Json::num(u64::from(legs))),
            ("retries", &Json::num(u64::from(retries))),
            ("snapshot", snapshot),
        ],
    );
    out.push('\n');
}

/// Appends `{"t":"done","id":N,"record":` + the encoded `record` + `}`
/// and a newline — the bytes of the same object encoded as a tree.
fn push_done(out: &mut String, id: u64, record: &str) {
    out.push_str(r#"{"t":"done","id":"#);
    Json::num(id).write_to(out);
    out.push_str(r#","record":"#);
    out.push_str(record);
    out.push_str("}\n");
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Recovery {
        Journal::replay(text.as_bytes()).expect("replay")
    }

    #[test]
    fn replays_admit_leg_done() {
        let r = parse(concat!(
            "{\"t\":\"open\",\"gen\":3}\n",
            "{\"t\":\"admit\",\"id\":1,\"request\":{\"kind\":\"fsim\"}}\n",
            "{\"t\":\"admit\",\"id\":2,\"request\":{\"kind\":\"atpg\"}}\n",
            "{\"t\":\"leg\",\"id\":1,\"legs\":4,\"retries\":1,\"snapshot\":{\"started\":true}}\n",
            "{\"t\":\"done\",\"id\":2,\"record\":{\"ok\":true}}\n",
        ));
        assert_eq!(r.generation, 3);
        assert_eq!(r.max_id, 2);
        assert_eq!(r.jobs.len(), 1);
        assert_eq!(r.jobs[0].id, 1);
        assert_eq!(r.jobs[0].legs, 4);
        assert_eq!(r.jobs[0].retries, 1);
        assert!(r.jobs[0].snapshot.is_some());
        assert_eq!(r.terminal.len(), 1);
        assert_eq!(r.terminal[0].0, 2);
        assert!(!r.torn_tail);
    }

    #[test]
    fn torn_final_line_is_discarded() {
        let r = parse(concat!(
            "{\"t\":\"admit\",\"id\":1,\"request\":{\"kind\":\"fsim\"}}\n",
            "{\"t\":\"leg\",\"id\":1,\"legs\":2,\"ret",
        ));
        assert!(r.torn_tail);
        assert_eq!(r.jobs.len(), 1);
        assert_eq!(r.jobs[0].legs, 0, "torn leg record must not apply");
    }

    #[test]
    fn torn_non_utf8_tail_is_discarded() {
        let mut bytes = b"{\"t\":\"admit\",\"id\":1,\"request\":{}}\n".to_vec();
        bytes.extend_from_slice(&[0x7b, 0x22, 0xFF, 0xFE]);
        let r = Journal::replay(&bytes).expect("replay");
        assert!(r.torn_tail);
        assert_eq!(r.jobs.len(), 1);
    }

    #[test]
    fn interior_corruption_is_refused() {
        let err = Journal::replay(
            concat!(
                "{\"t\":\"admit\",\"id\":1,\"request\":{}}\n",
                "NOT JSON AT ALL\n",
                "{\"t\":\"done\",\"id\":1,\"record\":{}}\n",
            )
            .as_bytes(),
        )
        .expect_err("interior corruption");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        for bad in [
            "{\"t\":\"frobnicate\"}\n{\"t\":\"open\",\"gen\":1}\n",
            "{\"id\":1}\n{\"t\":\"open\",\"gen\":1}\n",
            "{\"t\":\"leg\",\"id\":9,\"legs\":1,\"retries\":0,\"snapshot\":null}\n{\"t\":\"open\",\"gen\":1}\n",
        ] {
            assert!(Journal::replay(bad.as_bytes()).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn open_compacts_and_bumps_generation() {
        let dir = std::env::temp_dir().join(format!("dynmos-journal-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join(JOURNAL_FILE),
            concat!(
                "{\"t\":\"open\",\"gen\":1}\n",
                "{\"t\":\"admit\",\"id\":1,\"request\":{\"kind\":\"fsim\"}}\n",
                "{\"t\":\"leg\",\"id\":1,\"legs\":1,\"retries\":0,\"snapshot\":{\"s\":1}}\n",
                "{\"t\":\"leg\",\"id\":1,\"legs\":2,\"retries\":0,\"snapshot\":{\"s\":2}}\n",
                "{\"t\":\"admit\",\"id\":2,\"request\":{\"kind\":\"fsim\"}}\n",
                "{\"t\":\"done\",\"id\":2,\"record\":{\"ok\":true}}\n",
                "{\"t\":\"leg\",\"id\":1,\"legs\":3,\"retries\":1,\"sn",
            ),
        )
        .unwrap();
        let (journal, recovery) = Journal::open(&dir, None).unwrap();
        assert_eq!(recovery.generation, 2);
        assert!(recovery.torn_tail);
        assert_eq!(recovery.max_id, 2);
        assert_eq!(recovery.jobs.len(), 1);
        // The latest *committed* leg record wins; the torn one is gone.
        assert_eq!(recovery.jobs[0].legs, 2);
        drop(journal);

        // The rewritten journal is compact (stale leg 1 dropped, torn
        // tail gone) and replays to the same state one generation up.
        let text = fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(text.lines().count(), 4, "compacted: {text}");
        assert!(!text.contains("\"s\":1"), "stale leg kept: {text}");
        let (journal, recovery) = Journal::open(&dir, None).unwrap();
        assert_eq!(recovery.generation, 3);
        assert_eq!(recovery.jobs.len(), 1);
        assert_eq!(recovery.jobs[0].legs, 2);
        assert_eq!(recovery.terminal.len(), 1);
        drop(journal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_survive_reopen() {
        let dir = std::env::temp_dir().join(format!("dynmos-journal-ap-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (mut journal, recovery) = Journal::open(&dir, None).unwrap();
        assert_eq!(recovery.generation, 1);
        assert_eq!(recovery.max_id, 0);
        let request = Json::parse("{\"kind\":\"fsim\",\"patterns\":64}").unwrap();
        journal.record_admit(1, &request).unwrap();
        journal
            .record_leg(1, 2, 0, Json::parse("{\"started\":true}").unwrap())
            .unwrap();
        journal.record_admit(2, &request).unwrap();
        journal
            .record_done(2, &Json::parse("{\"ok\":true,\"id\":2}").unwrap())
            .unwrap();
        drop(journal);
        let (_journal, recovery) = Journal::open(&dir, None).unwrap();
        assert_eq!(recovery.generation, 2);
        assert_eq!(recovery.max_id, 2);
        assert_eq!(recovery.jobs.len(), 1);
        assert_eq!(recovery.jobs[0].id, 1);
        assert_eq!(recovery.jobs[0].legs, 2);
        assert_eq!(recovery.jobs[0].request, request);
        assert_eq!(recovery.terminal.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
