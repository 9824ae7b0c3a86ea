//! The content-addressed artifact store.
//!
//! One directory per job under `<root>/jobs/<id>/`, a top-level
//! `index.json` summarising every job, and atomic *durable* writes
//! (temp sibling, file fsync, rename, parent-directory fsync) throughout,
//! so neither a killed daemon nor a power loss leaves a half-written or
//! retroactively-undone file:
//!
//! ```text
//! store/
//! ├── index.json            walshcheck-index/2: id → {state, report_hash, …}
//! ├── quarantine/           artifacts the integrity scan pulled aside
//! └── jobs/<id>/
//!     ├── spec.json         full JobSpec, canonical JSON
//!     ├── netlist.il        the submitted ILANG netlist, verbatim
//!     ├── status.json       JobRecord snapshot (state machine source of truth)
//!     ├── checkpoint.ck     walshcheck-checkpoint/1 (while running)
//!     ├── events.jsonl      one progress event per line, append-only
//!     ├── report.json       the walshcheck-report/5 artifact (canonical bytes)
//!     └── run.json          full run report (timings, cache counters)
//! ```
//!
//! The job id *is* the content address: the first 16 hex digits of
//! `SHA-256(netlist_sha256 ∥ "\n" ∥ spec identity JSON)`. Identical
//! submissions always map to the same directory, which is how resubmission
//! becomes a disk read instead of a recomputation.
//!
//! ## Durability discipline (DESIGN.md §16)
//!
//! Every mutation goes through an injectable [`IoFs`] layer so the
//! crash-point explorer can trace and replay it. The barriers are:
//!
//! * **Published files** (`write_job_file`, `write_index`): temp sibling →
//!   file fsync → rename → parent-directory fsync. A rename without the
//!   trailing directory fsync is *not* durable — a crash can undo it.
//! * **Job directories**: `create_job` fsyncs `jobs/` after the mkdir, so
//!   a job directory cannot vanish from under files later synced into it.
//! * **Quarantine moves**: the destination *and* source directories are
//!   fsynced after the rename, so a file is never durably in both places.
//! * **State transitions**: callers write `status.json` before
//!   `index.json`; because each write is individually durable, the index
//!   can never durably reference a status that did not reach the disk.
//! * **Event appends** (`append_event`): one `O_APPEND` write per line;
//!   fsync policy per [`FsyncEvents`] — events are the one place where
//!   durability is traded against sweep throughput, and a torn or lost
//!   tail is tolerated by the reader.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use walshcheck_core::hash::sha256_hex;
use walshcheck_core::iofs::{atomic_replace, IoFs, RealFs};

/// Number of leading hex digits of the cache key used as the job id.
/// 64 bits of the hash — collisions would need ~2³² distinct jobs in one
/// store.
pub const ID_LEN: usize = 16;

/// How often `events.jsonl` appends are fsynced (the `--fsync-events`
/// CLI flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncEvents {
    /// Fsync after every appended line — maximum durability, one fsync
    /// per progress event.
    Always,
    /// Fsync every [`FsyncEvents::INTERVAL`]-th append — bounded loss,
    /// amortized cost. The default.
    #[default]
    Interval,
    /// Never fsync the event log; a crash may lose the unsynced tail
    /// (the reader already drops a torn final line).
    Never,
}

impl FsyncEvents {
    /// Append count between fsyncs in [`FsyncEvents::Interval`] mode.
    pub const INTERVAL: u64 = 32;

    /// Parses the CLI spelling (`always` | `interval` | `never`).
    pub fn parse(s: &str) -> Option<FsyncEvents> {
        Some(match s {
            "always" => FsyncEvents::Always,
            "interval" => FsyncEvents::Interval,
            "never" => FsyncEvents::Never,
            _ => return None,
        })
    }

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            FsyncEvents::Always => "always",
            FsyncEvents::Interval => "interval",
            FsyncEvents::Never => "never",
        }
    }
}

/// Derives the job id from the two halves of the cache identity.
pub fn job_id(netlist_sha256: &str, identity_json: &str) -> String {
    let key = sha256_hex(format!("{netlist_sha256}\n{identity_json}").as_bytes());
    key[..ID_LEN].to_string()
}

/// A handle on one store directory. Cheap to clone; all state is on disk.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
    fs: Arc<dyn IoFs>,
    fsync_events: FsyncEvents,
    event_seq: Arc<AtomicU64>,
}

impl Store {
    /// Opens (creating if needed) the store rooted at `root`, with the
    /// default (real, fully-fsyncing) I/O layer and event policy.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        Store::open_with(root, RealFs::shared(), FsyncEvents::default())
    }

    /// Opens the store writing through `fs` with the given event-log
    /// fsync policy — how the crash-point explorer swaps in its tracing
    /// shim.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open_with(
        root: impl Into<PathBuf>,
        fs: Arc<dyn IoFs>,
        fsync_events: FsyncEvents,
    ) -> io::Result<Store> {
        let root = root.into();
        fs.create_dir_all(&root.join("jobs"))?;
        // Make the skeleton durable before anything is stored under it.
        fs.sync_dir(&root)?;
        Ok(Store {
            root,
            fs,
            fsync_events,
            event_seq: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The I/O layer this store writes through (shared with the
    /// checkpoint writer of jobs executed against this store).
    pub fn io(&self) -> &Arc<dyn IoFs> {
        &self.fs
    }

    /// The directory of job `id` (not necessarily existing yet).
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.root.join("jobs").join(id)
    }

    /// Path of `file` inside job `id`'s directory.
    pub fn job_file(&self, id: &str, file: &str) -> PathBuf {
        self.job_dir(id).join(file)
    }

    /// Creates job `id`'s directory and makes its entry durable (fsync of
    /// `jobs/`) *before* anything is written into it — otherwise a crash
    /// could lose the directory out from under fsynced files.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn create_job(&self, id: &str) -> io::Result<()> {
        self.fs.create_dir_all(&self.job_dir(id))?;
        self.fs.sync_dir(&self.root.join("jobs"))
    }

    /// Whether job `id` has a directory in the store.
    pub fn has_job(&self, id: &str) -> bool {
        self.job_dir(id).is_dir()
    }

    /// Every job id present in the store, sorted.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures.
    pub fn job_ids(&self) -> io::Result<Vec<String>> {
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(self.root.join("jobs"))? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                if let Ok(name) = entry.file_name().into_string() {
                    ids.push(name);
                }
            }
        }
        ids.sort();
        Ok(ids)
    }

    /// Atomically and durably replaces `file` of job `id` with `bytes`
    /// (temp sibling, file fsync, rename, directory fsync) — a crash
    /// leaves either the old content or the new, never a torn file, and a
    /// completed call survives any later crash.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_job_file(&self, id: &str, file: &str, bytes: &[u8]) -> io::Result<()> {
        atomic_replace(&*self.fs, &self.job_file(id, file), bytes)
    }

    /// SHA-256 (lowercase hex) of `file` of job `id`, read as raw bytes.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error (`NotFound` when the
    /// file does not exist).
    pub fn job_file_sha256(&self, id: &str, file: &str) -> io::Result<String> {
        Ok(sha256_hex(&std::fs::read(self.job_file(id, file))?))
    }

    /// Removes `file` of job `id` and makes the removal durable.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn remove_job_file(&self, id: &str, file: &str) -> io::Result<()> {
        self.fs.remove_file(&self.job_file(id, file))?;
        self.fs.sync_dir(&self.job_dir(id))
    }

    /// Moves `file` of job `id` into `<root>/quarantine/<id>-<file>`,
    /// replacing any earlier quarantined copy of the same name, and
    /// fsyncs both directories so the file is durably in exactly one
    /// place. Used by the startup integrity scan on artifacts whose
    /// recorded hash no longer matches the bytes on disk.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn quarantine_job_file(&self, id: &str, file: &str) -> io::Result<PathBuf> {
        let dir = self.quarantine_dir()?;
        let dest = dir.join(format!("{id}-{file}"));
        self.fs.rename(&self.job_file(id, file), &dest)?;
        self.fs.sync_dir(&dir)?;
        self.fs.sync_dir(&self.job_dir(id))?;
        Ok(dest)
    }

    /// Moves job `id`'s whole directory into `<root>/quarantine/<id>`,
    /// replacing any earlier quarantined copy, and fsyncs both parents.
    /// Used when a job directory is too damaged to rebuild a record from
    /// (unreadable `status.json` *and* unreadable spec or netlist).
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn quarantine_job_dir(&self, id: &str) -> io::Result<PathBuf> {
        let dir = self.quarantine_dir()?;
        let dest = dir.join(id);
        let _ = self.fs.remove_dir_all(&dest);
        self.fs.rename(&self.job_dir(id), &dest)?;
        self.fs.sync_dir(&dir)?;
        self.fs.sync_dir(&self.root.join("jobs"))?;
        Ok(dest)
    }

    /// Creates (durably) and returns the quarantine directory.
    fn quarantine_dir(&self) -> io::Result<PathBuf> {
        let dir = self.root.join("quarantine");
        self.fs.create_dir_all(&dir)?;
        self.fs.sync_dir(&self.root)?;
        Ok(dir)
    }

    /// Removes stale `.…​.tmp` siblings a crash mid-`atomic_replace` may
    /// have left in the root or any job directory. Returns how many were
    /// swept. Called by the startup integrity scan; stray temp files are
    /// never read, but sweeping them keeps the tree canonical.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures (missing dirs are fine).
    pub fn sweep_temp_files(&self) -> io::Result<usize> {
        let mut swept = 0;
        let mut dirs = vec![self.root.clone()];
        dirs.extend(self.job_ids()?.iter().map(|id| self.job_dir(id)));
        for dir in dirs {
            for entry in std::fs::read_dir(&dir)? {
                let entry = entry?;
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if entry.file_type()?.is_file() && name.starts_with('.') && name.ends_with(".tmp") {
                    self.fs.remove_file(&entry.path())?;
                    swept += 1;
                }
            }
            if swept > 0 {
                self.fs.sync_dir(&dir)?;
            }
        }
        Ok(swept)
    }

    /// Reads `file` of job `id` as a string.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error (`NotFound` when the
    /// file was never written).
    pub fn read_job_file(&self, id: &str, file: &str) -> io::Result<String> {
        std::fs::read_to_string(self.job_file(id, file))
    }

    /// Appends `line` (newline-terminated by this call) to job `id`'s
    /// `events.jsonl`.
    ///
    /// The line and its terminator go down in a single `write` so that
    /// concurrent appenders — scheduler workers each observing progress —
    /// cannot interleave mid-line: `O_APPEND` serializes whole writes,
    /// not pairs of them. Durability follows the store's [`FsyncEvents`]
    /// policy; a crash may lose an unsynced tail, which the events reader
    /// tolerates (whole-line loss plus at most one torn final line).
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn append_event(&self, id: &str, line: &str) -> io::Result<()> {
        let path = self.job_file(id, "events.jsonl");
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.fs.append(&path, &buf)?;
        let n = self.event_seq.fetch_add(1, Ordering::Relaxed) + 1;
        match self.fsync_events {
            FsyncEvents::Always => self.fs.sync_file(&path),
            FsyncEvents::Interval if n.is_multiple_of(FsyncEvents::INTERVAL) => {
                self.fs.sync_file(&path)
            }
            _ => Ok(()),
        }
    }

    /// Atomically and durably replaces the top-level `index.json` with
    /// `bytes`. Callers persist `status.json` *first*: each write's
    /// trailing fsyncs make that ordering a durability barrier, so the
    /// index never durably references a job state that is not itself on
    /// disk.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_index(&self, bytes: &[u8]) -> io::Result<()> {
        atomic_replace(&*self.fs, &self.root.join("index.json"), bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> Store {
        let dir =
            std::env::temp_dir().join(format!("walshcheckd-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(&dir).expect("open")
    }

    #[test]
    fn job_id_is_stable_and_input_sensitive() {
        let a = job_id("aa", "{\"x\":1}");
        assert_eq!(a.len(), ID_LEN);
        assert_eq!(a, job_id("aa", "{\"x\":1}"));
        assert_ne!(a, job_id("ab", "{\"x\":1}"));
        assert_ne!(a, job_id("aa", "{\"x\":2}"));
    }

    #[test]
    fn legacy_backend_key_keeps_the_identity_and_job_id() {
        // Specs stored by 0.3 daemons carry a `"backend"` key naming the
        // since-removed DD store. It must parse like any unknown key, so a
        // reopened store finds each job under its old id instead of
        // quarantining it.
        use walshcheck_core::json::{self, Json};
        use walshcheck_core::{JobSpec, Property};
        let mut spec = JobSpec::new(Property::Sni(2));
        spec.threads = 4;
        let Json::Obj(fields) = spec.to_json() else {
            panic!("a spec serializes to an object");
        };
        let netlist_sha = "ab".repeat(32);
        let identity = spec.identity_json().to_canonical();
        let id = job_id(&netlist_sha, &identity);
        for backend in ["shared", "private"] {
            let mut legacy = fields.clone();
            legacy.insert("backend".into(), Json::str(backend));
            let text = Json::Obj(legacy).to_canonical();
            let parsed = JobSpec::parse(&json::parse(&text).expect("valid json"))
                .expect("a 0.3 spec still parses");
            let parsed_identity = parsed.identity_json().to_canonical();
            assert_eq!(parsed_identity, identity, "backend={backend}");
            assert_eq!(parsed.identity_hash(), spec.identity_hash());
            assert_eq!(job_id(&netlist_sha, &parsed_identity), id);
            assert_eq!(
                parsed.to_json().to_canonical(),
                spec.to_json().to_canonical(),
                "the key is dropped, not carried along"
            );
        }
    }

    #[test]
    fn files_round_trip_and_events_append() {
        let store = temp_store("rt");
        store.create_job("cafe").expect("create");
        assert!(store.has_job("cafe"));
        store
            .write_job_file("cafe", "status.json", b"{\"state\":\"queued\"}")
            .expect("write");
        assert_eq!(
            store.read_job_file("cafe", "status.json").expect("read"),
            "{\"state\":\"queued\"}"
        );
        // Atomic replace leaves no temp file behind.
        store
            .write_job_file("cafe", "status.json", b"{\"state\":\"done\"}")
            .expect("rewrite");
        assert!(!store.job_file("cafe", ".status.json.tmp").exists());
        store.append_event("cafe", "{\"e\":1}").expect("append");
        store.append_event("cafe", "{\"e\":2}").expect("append");
        assert_eq!(
            store.read_job_file("cafe", "events.jsonl").expect("read"),
            "{\"e\":1}\n{\"e\":2}\n"
        );
        assert_eq!(store.job_ids().expect("ids"), vec!["cafe".to_string()]);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn fsync_events_parses_the_cli_spellings() {
        assert_eq!(FsyncEvents::parse("always"), Some(FsyncEvents::Always));
        assert_eq!(FsyncEvents::parse("interval"), Some(FsyncEvents::Interval));
        assert_eq!(FsyncEvents::parse("never"), Some(FsyncEvents::Never));
        assert_eq!(FsyncEvents::parse("sometimes"), None);
        for mode in [
            FsyncEvents::Always,
            FsyncEvents::Interval,
            FsyncEvents::Never,
        ] {
            assert_eq!(FsyncEvents::parse(mode.as_str()), Some(mode));
        }
    }

    #[test]
    fn sweep_removes_stale_temp_files_only() {
        let store = temp_store("sweep");
        store.create_job("cafe").expect("create");
        store
            .write_job_file("cafe", "status.json", b"{}")
            .expect("write");
        std::fs::write(store.job_file("cafe", ".report.json.tmp"), b"half").expect("stray");
        std::fs::write(store.root().join(".index.json.tmp"), b"half").expect("stray");
        assert_eq!(store.sweep_temp_files().expect("sweep"), 2);
        assert!(!store.job_file("cafe", ".report.json.tmp").exists());
        assert!(store.job_file("cafe", "status.json").exists());
        assert_eq!(store.sweep_temp_files().expect("resweep"), 0);
        let _ = std::fs::remove_dir_all(store.root());
    }
}
