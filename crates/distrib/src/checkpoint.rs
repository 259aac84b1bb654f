//! Atomic, generationed checkpoint files with an append-only delta log:
//! [`CheckpointStore`].
//!
//! A checkpoint that can be *torn* by the crash it exists to survive is
//! worse than none — the classic failure is a process dying mid-`write(2)`
//! and leaving a half-file that poisons the restart. This store makes the
//! standard guarantees explicit:
//!
//! * **Atomic replace.** A checkpoint is written to a temporary file in the
//!   same directory, fsynced, and `rename(2)`d over the live path; the
//!   directory is then fsynced, so the rename itself survives a power loss.
//!   Readers see the old complete file or the new complete file, never a
//!   mixture.
//! * **A `.prev` generation.** Before the rename, the previous live file is
//!   demoted to `<path>.prev` (via hard link + rename, so the live path
//!   never has a not-found gap a concurrent reader could fall into). If the
//!   *content* of the newest checkpoint is bad (corrupted on disk, or torn
//!   by a filesystem without atomic-rename durability), the loader falls
//!   back one generation instead of failing.
//! * **A delta log.** Between full checkpoints (*bases*), a writer may
//!   append smaller records to `<path>.delta`, each `fdatasync`ed before it
//!   counts as durable. A record is a frame of its own ([`DELTA_RECORD_KIND`])
//!   naming its base by the base file's trailing checksum and carrying its
//!   ordinal in the log (1, 2, …). Writing a base resets the log, after the
//!   base is durable, so a crash in between leaves records that name the
//!   older base and are ignored.
//! * **Typed fallback.** [`CheckpointStore::load_latest`] validates each
//!   generation with a caller-supplied check (normally
//!   [`decode_checkpoint`](crate::wire::decode_checkpoint), whose trailing
//!   checksum covers the whole file) and reports every skipped generation as
//!   a [`CheckpointWarning`] — the caller can log it, count it, or surface
//!   it to an operator, but is never silently resumed from stale state.
//!   [`CheckpointStore::load`] also applies the delta records that name the
//!   loaded base, in order, stopping with a warning at the first torn or
//!   invalid one: it never skips a bad record to apply a later one.
//!
//! [`CheckpointWriter`] takes the store off the caller's thread: the caller
//! captures its state at the exact stream point and submits it, and one
//! background thread encodes, writes and fsyncs each checkpoint in order —
//! as a base, or as a delta record when the job offers one
//! ([`CheckpointJob::encode_delta`]). `PipelineRunner` and the
//! `privacy-shardd` worker both checkpoint through it; only the pipeline
//! writes delta records.

use privacy_interchange::binary::{self, Decoder, Encoder};
use privacy_runtime::MonitorSnapshot;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, OnceLock};
use std::thread::{Scope, ScopedJoinHandle};

/// Which generation of a checkpoint file a load came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generation {
    /// The live checkpoint file.
    Current,
    /// The `.prev` fallback generation (the live file was missing or bad).
    Previous,
}

impl fmt::Display for Generation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Generation::Current => write!(f, "current"),
            Generation::Previous => write!(f, "previous"),
        }
    }
}

/// A generation that had to be skipped during [`CheckpointStore::load_latest`].
#[derive(Debug, Clone)]
pub struct CheckpointWarning {
    /// The file that was skipped.
    pub path: PathBuf,
    /// Why it was skipped (unreadable, or failed the caller's validation).
    pub detail: String,
}

impl fmt::Display for CheckpointWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "skipped checkpoint `{}`: {}", self.path.display(), self.detail)
    }
}

/// Frame kind of one delta-log record ("Privacy Checkpoint Delta
/// Record"): the base's trailing checksum (`u64`), the record's ordinal
/// (`u64`), and the caller's payload as a length-prefixed blob.
pub const DELTA_RECORD_KIND: [u8; 4] = *b"PCDR";

/// The delta-record format version this build writes and reads.
pub const DELTA_RECORD_VERSION: u32 = 1;

/// The name a delta record gives its base: the base file's last eight
/// bytes, little-endian — the trailing checksum of a framed base, which
/// covers the whole file. A shorter file is zero-padded.
#[must_use]
pub fn base_tag(bytes: &[u8]) -> u64 {
    let mut tail = [0u8; 8];
    let take = bytes.len().min(8);
    tail[8 - take..].copy_from_slice(&bytes[bytes.len() - take..]);
    u64::from_le_bytes(tail)
}

/// A checkpoint [`CheckpointStore::load`] found: the caller's decoded state
/// with every delta record applied, which generation its base came from,
/// and how many records were applied.
#[derive(Debug)]
pub struct Loaded<T> {
    /// The decoded base with the records applied.
    pub state: T,
    /// The generation the base came from.
    pub generation: Generation,
    /// Delta records applied, in log order.
    pub deltas: usize,
}

/// An atomically replaced, two-generation checkpoint file and the delta log
/// beside it.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    base: PathBuf,
}

impl CheckpointStore {
    /// A store writing to `base` (and `base.prev` / `base.tmp` /
    /// `base.delta` beside it).
    #[must_use]
    pub fn new(base: impl Into<PathBuf>) -> Self {
        Self { base: base.into() }
    }

    /// The live checkpoint path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.base
    }

    /// The previous-generation path.
    #[must_use]
    pub fn prev_path(&self) -> PathBuf {
        let mut name = self.base.as_os_str().to_owned();
        name.push(".prev");
        PathBuf::from(name)
    }

    /// The delta-log path.
    #[must_use]
    pub fn delta_path(&self) -> PathBuf {
        self.with_suffix(".delta")
    }

    fn tmp_path(&self) -> PathBuf {
        self.with_suffix(".tmp")
    }

    fn prev_tmp_path(&self) -> PathBuf {
        self.with_suffix(".prev.tmp")
    }

    fn with_suffix(&self, suffix: &str) -> PathBuf {
        let mut name = self.base.as_os_str().to_owned();
        name.push(suffix);
        PathBuf::from(name)
    }

    /// Fsyncs the directory holding the checkpoint, making the renames,
    /// links and creations in it durable.
    fn sync_dir(&self) -> std::io::Result<()> {
        let dir = match self.base.parent() {
            Some(parent) if !parent.as_os_str().is_empty() => parent,
            _ => Path::new("."),
        };
        fs::File::open(dir)?.sync_all()
    }

    /// Atomically replaces the checkpoint with `bytes` as a new base,
    /// demoting the old live file to the `.prev` generation first, and
    /// resets the delta log.
    ///
    /// The live path never *vanishes* during the rotation: the old
    /// generation is demoted via a hard link (so `base` and `base.prev`
    /// briefly name the same inode) and the new file then renamed over
    /// `base`. A concurrent reader — the supervisor validates every
    /// checkpoint by reading it back when its `CheckpointDone` arrives,
    /// which can race the worker's *next* asynchronous checkpoint write —
    /// always finds a complete generation at `base`, old or new, never a
    /// `NotFound` gap.
    ///
    /// The directory is fsynced after the final rename: the file's own
    /// fsync does not make its new name durable, and a power loss could
    /// otherwise undo a rename that a writer's on-durable hook has already
    /// counted. Only then is the delta log removed, so a crash in between
    /// leaves the new base with records that name the old one, which
    /// [`CheckpointStore::load`] ignores.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be created,
    /// the temporary file cannot be written and fsynced, a link/rename
    /// fails, the directory cannot be fsynced or the delta log cannot be
    /// removed. On error the live file is either the old generation or the
    /// new one — never a partial write, because all writing happens in the
    /// `.tmp` file.
    pub fn write(&self, bytes: &[u8]) -> std::io::Result<()> {
        if let Some(parent) = self.base.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let tmp = self.tmp_path();
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
        }
        if self.base.exists() {
            // Demote without unlinking `base`: link the live inode to a
            // scratch name, then atomically rename it over `.prev`.
            let prev_tmp = self.prev_tmp_path();
            let _ = fs::remove_file(&prev_tmp);
            fs::hard_link(&self.base, &prev_tmp)?;
            fs::rename(&prev_tmp, self.prev_path())?;
        }
        fs::rename(&tmp, &self.base)?;
        self.sync_dir()?;
        match fs::remove_file(self.delta_path()) {
            Err(error) if error.kind() != std::io::ErrorKind::NotFound => Err(error),
            _ => Ok(()),
        }
    }

    /// Appends one record to the delta log — `payload`, naming the base by
    /// its [`base_tag`] and numbered `ordinal` — and `fdatasync`s it; a log
    /// this call creates is made durable by fsyncing the directory too.
    /// Returns the record's length in bytes.
    ///
    /// Records only extend the base they name: append them after a
    /// [`CheckpointStore::write`] of that base, with ordinals 1, 2, … in
    /// order.
    ///
    /// # Errors
    ///
    /// The underlying I/O error. A failed append may leave a torn record at
    /// the end of the log, which [`CheckpointStore::load`] stops at.
    pub fn append_delta(&self, base: u64, ordinal: u64, payload: &[u8]) -> std::io::Result<usize> {
        let mut record = Encoder::new(DELTA_RECORD_KIND, DELTA_RECORD_VERSION);
        record.reserve(8 + 8 + 4 + payload.len());
        record.u64(base);
        record.u64(ordinal);
        record.bytes(payload);
        let record = record.finish();
        let path = self.delta_path();
        let (mut file, created) =
            match fs::OpenOptions::new().append(true).create_new(true).open(&path) {
                Ok(file) => (file, true),
                Err(error) if error.kind() == std::io::ErrorKind::AlreadyExists => {
                    (fs::OpenOptions::new().append(true).open(&path)?, false)
                }
                Err(error) => return Err(error),
            };
        file.write_all(&record)?;
        file.sync_data()?;
        if created {
            self.sync_dir()?;
        }
        Ok(record.len())
    }

    /// Loads the newest generation whose bytes pass `validate`, falling back
    /// from the live file to `.prev`. Returns the accepted bytes and which
    /// generation they came from (or `None` when no generation is usable),
    /// plus a warning for every generation that was skipped and why.
    pub fn load_latest(
        &self,
        mut validate: impl FnMut(&[u8]) -> Result<(), String>,
    ) -> (Option<(Vec<u8>, Generation)>, Vec<CheckpointWarning>) {
        let mut warnings = Vec::new();
        let loaded = self.newest_base(|bytes| validate(&bytes).map(|()| bytes), &mut warnings);
        (loaded.map(|(bytes, _, generation)| (bytes, generation)), warnings)
    }

    /// Loads the newest base that `decode` accepts, falling back from the
    /// live file to `.prev` as [`CheckpointStore::load_latest`] does, then
    /// passes `apply` the payload of each delta record that names that
    /// base, in log order. Each file is read once and each frame decoded
    /// once.
    ///
    /// Applying stops at the first record that is torn, corrupt, names
    /// another base, is out of order, or that `apply` refuses: that record
    /// and everything after it are reported as one [`CheckpointWarning`]
    /// and never applied, so the state is always a base plus a whole prefix
    /// of its records. `apply` must leave the state unchanged when it
    /// refuses a record.
    pub fn load<T>(
        &self,
        mut decode: impl FnMut(&[u8]) -> Result<T, String>,
        mut apply: impl FnMut(&mut T, &[u8]) -> Result<(), String>,
    ) -> (Option<Loaded<T>>, Vec<CheckpointWarning>) {
        let mut warnings = Vec::new();
        let loaded = self.newest_base(|bytes| decode(&bytes), &mut warnings).map(
            |(mut state, base, generation)| {
                let deltas = self.apply_log(base, &mut state, &mut apply, &mut warnings);
                Loaded { state, generation, deltas }
            },
        );
        (loaded, warnings)
    }

    /// The newest generation `decode` accepts, with its [`base_tag`];
    /// every generation skipped is reported in `warnings`.
    fn newest_base<T>(
        &self,
        mut decode: impl FnMut(Vec<u8>) -> Result<T, String>,
        warnings: &mut Vec<CheckpointWarning>,
    ) -> Option<(T, u64, Generation)> {
        let candidates =
            [(self.base.clone(), Generation::Current), (self.prev_path(), Generation::Previous)];
        for (path, generation) in candidates {
            if !path.exists() {
                continue;
            }
            match fs::read(&path) {
                Ok(bytes) => {
                    let base = base_tag(&bytes);
                    match decode(bytes) {
                        Ok(state) => return Some((state, base, generation)),
                        Err(detail) => warnings.push(CheckpointWarning { path, detail }),
                    }
                }
                Err(error) => warnings
                    .push(CheckpointWarning { path, detail: format!("unreadable: {error}") }),
            }
        }
        None
    }

    /// Applies the delta records naming `base` to `state`, in order, up to
    /// the first bad one; returns how many were applied.
    fn apply_log<T>(
        &self,
        base: u64,
        state: &mut T,
        apply: &mut impl FnMut(&mut T, &[u8]) -> Result<(), String>,
        warnings: &mut Vec<CheckpointWarning>,
    ) -> usize {
        let path = self.delta_path();
        let log = match fs::read(&path) {
            Ok(log) => log,
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => return 0,
            Err(error) => {
                warnings.push(CheckpointWarning { path, detail: format!("unreadable: {error}") });
                return 0;
            }
        };
        let mut offset = 0;
        let mut applied = 0;
        while offset < log.len() {
            let ordinal = applied as u64 + 1;
            let outcome = read_record(&log[offset..]).and_then(|(len, tag, found, payload)| {
                if tag != base {
                    Err(format!("it extends base {tag:#018x}, not the loaded base {base:#018x}"))
                } else if found != ordinal {
                    Err(format!("it is numbered {found}"))
                } else {
                    apply(state, payload).map(|()| len)
                }
            });
            match outcome {
                Ok(len) => {
                    offset += len;
                    applied += 1;
                }
                Err(detail) => {
                    warnings.push(CheckpointWarning {
                        path,
                        detail: format!(
                            "stopped at delta record {ordinal} (byte {offset} of {}): {detail}",
                            log.len()
                        ),
                    });
                    break;
                }
            }
        }
        applied
    }
}

/// The delta record at the start of `log`: its length, base tag, ordinal
/// and payload.
fn read_record(log: &[u8]) -> Result<(usize, u64, u64, &[u8]), String> {
    let len = binary::frame_len(log).map_err(|error| error.to_string())?;
    let frame = log
        .get(..len)
        .ok_or_else(|| format!("torn: {} of its {len} bytes are on disk", log.len()))?;
    let record = || -> Result<(u64, u64, &[u8]), binary::CodecError> {
        let mut decoder = Decoder::new(frame, DELTA_RECORD_KIND, DELTA_RECORD_VERSION)?;
        let base = decoder.u64()?;
        let ordinal = decoder.u64()?;
        let payload_len = decoder.u32()? as usize;
        let payload = decoder.raw(payload_len)?;
        decoder.finish()?;
        Ok((base, ordinal, payload))
    };
    let (base, ordinal, payload) = record().map_err(|error| error.to_string())?;
    Ok((len, base, ordinal, payload))
}

/// A checkpoint captured at a stream point, waiting to be encoded by a
/// [`CheckpointWriter`].
pub trait CheckpointJob: Send + Sized {
    /// What the writer's on-durable hook receives once the file is durable.
    type Done;

    /// Encodes the checkpoint as a base file into `file`, replacing its
    /// contents and reusing its allocation. Consuming the job releases the
    /// captured state before the slow write starts.
    fn encode(self, file: &mut Vec<u8>) -> Self::Done;

    /// Encodes the checkpoint as the payload of a delta record into
    /// `record`, replacing its contents, when it can be one: it must bring
    /// the state of the last checkpoint the writer made durable — see
    /// `chain` — to this one. Otherwise hands the job back, to be written
    /// as a base by [`CheckpointJob::encode`]. The default writes every
    /// checkpoint as a base.
    ///
    /// # Errors
    ///
    /// The job itself, when it is to be written as a base.
    fn encode_delta(self, record: &mut Vec<u8>, chain: &DeltaChain) -> Result<Self::Done, Self> {
        let _ = (record, chain);
        Err(self)
    }
}

/// What a [`CheckpointWriter`] has written since its last base, for a job
/// choosing between a base and a delta record.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaChain {
    /// Bytes of the last base this writer wrote; 0 before its first, when
    /// there is nothing a record could extend.
    pub base_bytes: usize,
    /// Bytes of the delta records appended since that base.
    pub log_bytes: usize,
    /// The base's [`base_tag`].
    base: u64,
    /// Records appended since that base.
    records: u64,
}

/// A bare monitor snapshot is a checkpoint file of its own.
impl CheckpointJob for MonitorSnapshot {
    type Done = ();

    fn encode(self, file: &mut Vec<u8>) {
        self.encode_into(file);
    }
}

/// A checkpoint that could not be made durable: the path of the file that
/// failed and the I/O error. Cloning shares the error, so a failure can be reported from
/// every later call.
#[derive(Debug, Clone)]
pub struct CheckpointWriteError {
    path: PathBuf,
    error: Arc<std::io::Error>,
}

impl CheckpointWriteError {
    /// The file that failed: the store's live checkpoint path for a base,
    /// its delta-log path for a delta record.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The underlying I/O error.
    #[must_use]
    pub fn io_error(&self) -> &std::io::Error {
        &self.error
    }
}

impl fmt::Display for CheckpointWriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint write to `{}` failed: {}", self.path.display(), self.error)
    }
}

impl std::error::Error for CheckpointWriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&*self.error)
    }
}

/// The checkpoint buffer starts this large, so it is allocated by the
/// thread that spawns the writer. Growing it reallocates it in the malloc
/// arena it came from, so the writer thread keeps no multi-megabyte
/// high-water mark in a glibc arena of its own.
const INITIAL_BUFFER: usize = 64 << 10;

/// One background thread that owns a [`CheckpointStore`] and makes
/// submitted checkpoints durable in submission order.
///
/// For each job the thread encodes the file into the one buffer it keeps
/// and reuses — as a delta record if [`CheckpointJob::encode_delta`] takes
/// it, else as a base — writes it with [`CheckpointStore::append_delta`] or
/// [`CheckpointStore::write`], and then calls the on-durable hook with
/// [`CheckpointJob::Done`]. At most one job waits
/// behind the one being written; a further [`submit`](Self::submit) blocks
/// until the thread takes the waiting job, so a slow disk slows the caller
/// down instead of piling captures up in memory.
///
/// The first failed write stops the thread. The hook sees the error once,
/// and it is sticky: every later `submit`, and `close`, returns it.
pub struct CheckpointWriter<'scope, J: CheckpointJob> {
    jobs: SyncSender<J>,
    thread: ScopedJoinHandle<'scope, ()>,
    path: PathBuf,
    failure: Arc<OnceLock<CheckpointWriteError>>,
}

impl<'scope, J: CheckpointJob + 'scope> CheckpointWriter<'scope, J> {
    /// Starts the writer thread on `scope`, writing through `store`.
    /// `on_done` runs on that thread: with each job's [`CheckpointJob::Done`]
    /// once its file is durable, or with the error of the write that failed.
    pub fn spawn<'env>(
        scope: &'scope Scope<'scope, 'env>,
        store: CheckpointStore,
        mut on_done: impl FnMut(Result<J::Done, &CheckpointWriteError>) + Send + 'scope,
    ) -> Self {
        let (jobs, queue) = sync_channel::<J>(1);
        let failure = Arc::new(OnceLock::new());
        let failed = Arc::clone(&failure);
        let path = store.path().to_owned();
        let mut file = Vec::with_capacity(INITIAL_BUFFER);
        let thread = scope.spawn(move || {
            let mut chain = DeltaChain::default();
            for job in queue {
                // The written job's hook value, or the error and the path
                // of the file that failed.
                let written = match job.encode_delta(&mut file, &chain) {
                    Ok(done) => {
                        let ordinal = chain.records + 1;
                        match store.append_delta(chain.base, ordinal, &file) {
                            Ok(len) => {
                                chain.records = ordinal;
                                chain.log_bytes += len;
                                Ok(done)
                            }
                            Err(error) => Err((error, store.delta_path())),
                        }
                    }
                    Err(job) => {
                        let done = job.encode(&mut file);
                        match store.write(&file) {
                            Ok(()) => {
                                chain = DeltaChain {
                                    base_bytes: file.len(),
                                    base: base_tag(&file),
                                    ..DeltaChain::default()
                                };
                                Ok(done)
                            }
                            Err(error) => Err((error, store.path().to_owned())),
                        }
                    }
                };
                match written {
                    Ok(done) => on_done(Ok(done)),
                    Err((error, path)) => {
                        let error = CheckpointWriteError { path, error: Arc::new(error) };
                        on_done(Err(&error));
                        // Set before the queue drops, so a submit that
                        // finds the thread gone always finds the error.
                        let _ = failed.set(error);
                        return;
                    }
                }
            }
        });
        CheckpointWriter { jobs, thread, path, failure }
    }

    /// Queues a checkpoint, blocking while another one already waits.
    ///
    /// # Errors
    ///
    /// The sticky error of an earlier checkpoint that failed to write; the
    /// job is then dropped.
    pub fn submit(&self, job: J) -> Result<(), CheckpointWriteError> {
        if let Some(error) = self.failure.get() {
            return Err(error.clone());
        }
        self.jobs.send(job).map_err(|_| self.stopped())
    }

    /// Waits until every submitted checkpoint is durable and the thread
    /// has exited.
    ///
    /// # Errors
    ///
    /// The error of the first checkpoint that failed to write.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the on-durable hook.
    pub fn close(self) -> Result<(), CheckpointWriteError> {
        drop(self.jobs);
        if let Err(panic) = self.thread.join() {
            std::panic::resume_unwind(panic);
        }
        match self.failure.get() {
            Some(error) => Err(error.clone()),
            None => Ok(()),
        }
    }

    /// Why the thread no longer takes jobs: its write error, or — if the
    /// hook panicked — an error saying so.
    fn stopped(&self) -> CheckpointWriteError {
        self.failure.get().cloned().unwrap_or_else(|| CheckpointWriteError {
            path: self.path.clone(),
            error: Arc::new(std::io::Error::other("the checkpoint writer thread exited")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("privacy-distrib-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn write_then_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let store = CheckpointStore::new(dir.join("w.ckpt"));
        store.write(b"generation-1").unwrap();
        let (loaded, warnings) = store.load_latest(|_| Ok(()));
        let (bytes, generation) = loaded.expect("checkpoint loads");
        assert_eq!(bytes, b"generation-1");
        assert_eq!(generation, Generation::Current);
        assert!(warnings.is_empty());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn second_write_demotes_first_to_prev() {
        let dir = temp_dir("demote");
        let store = CheckpointStore::new(dir.join("w.ckpt"));
        store.write(b"one").unwrap();
        store.write(b"two").unwrap();
        assert_eq!(fs::read(store.path()).unwrap(), b"two");
        assert_eq!(fs::read(store.prev_path()).unwrap(), b"one");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn bad_current_generation_falls_back_with_warning() {
        let dir = temp_dir("fallback");
        let store = CheckpointStore::new(dir.join("w.ckpt"));
        store.write(b"good-old").unwrap();
        store.write(b"bad-new").unwrap();
        let (loaded, warnings) = store.load_latest(|bytes| {
            if bytes.starts_with(b"bad") {
                Err("checksum mismatch".to_owned())
            } else {
                Ok(())
            }
        });
        let (bytes, generation) = loaded.expect("previous generation loads");
        assert_eq!(bytes, b"good-old");
        assert_eq!(generation, Generation::Previous);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].to_string().contains("checksum mismatch"));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn both_generations_bad_reports_both() {
        let dir = temp_dir("allbad");
        let store = CheckpointStore::new(dir.join("w.ckpt"));
        store.write(b"one").unwrap();
        store.write(b"two").unwrap();
        let (loaded, warnings) = store.load_latest(|_| Err("nope".to_owned()));
        assert!(loaded.is_none());
        assert_eq!(warnings.len(), 2);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_files_load_as_none_without_warnings() {
        let dir = temp_dir("missing");
        let store = CheckpointStore::new(dir.join("never-written.ckpt"));
        let (loaded, warnings) = store.load_latest(|_| Ok(()));
        assert!(loaded.is_none());
        assert!(warnings.is_empty());
        let _ = fs::remove_dir_all(dir);
    }

    /// A state that is the base bytes followed by every applied payload.
    fn load_concatenated(
        store: &CheckpointStore,
    ) -> (Option<Loaded<Vec<u8>>>, Vec<CheckpointWarning>) {
        store.load(
            |bytes| Ok(bytes.to_vec()),
            |state, payload| {
                if payload.starts_with(b"refuse") {
                    return Err("refused".to_owned());
                }
                state.extend_from_slice(payload);
                Ok(())
            },
        )
    }

    #[test]
    fn delta_records_apply_in_order_and_a_base_write_resets_the_log() {
        let dir = temp_dir("delta-order");
        let store = CheckpointStore::new(dir.join("w.ckpt"));
        store.write(b"base-1").unwrap();
        let tag = base_tag(b"base-1");
        let mut log_bytes = 0;
        for (ordinal, payload) in [(1, &b"+a"[..]), (2, b"+b"), (3, b"+c")] {
            log_bytes += store.append_delta(tag, ordinal, payload).unwrap();
        }
        assert_eq!(fs::metadata(store.delta_path()).unwrap().len(), log_bytes as u64);
        let (loaded, warnings) = load_concatenated(&store);
        let loaded = loaded.expect("base and records load");
        assert_eq!(loaded.state, b"base-1+a+b+c");
        assert_eq!((loaded.generation, loaded.deltas), (Generation::Current, 3));
        assert!(warnings.is_empty(), "{warnings:?}");

        store.write(b"base-2").unwrap();
        assert!(!store.delta_path().exists(), "a base write removes the delta log");
        let (loaded, warnings) = load_concatenated(&store);
        assert_eq!(loaded.expect("base loads").state, b"base-2");
        assert!(warnings.is_empty());
        let _ = fs::remove_dir_all(dir);
    }

    /// A crash between a base's rename and the log reset leaves records
    /// that name the older base: they are ignored, with one warning.
    #[test]
    fn a_delta_log_left_over_from_an_older_base_is_ignored_with_a_warning() {
        let dir = temp_dir("delta-stale");
        let store = CheckpointStore::new(dir.join("w.ckpt"));
        store.write(b"old-base").unwrap();
        store.append_delta(base_tag(b"old-base"), 1, b"+old").unwrap();
        let stale = fs::read(store.delta_path()).unwrap();
        store.write(b"new-base").unwrap();
        fs::write(store.delta_path(), &stale).unwrap();
        let (loaded, warnings) = load_concatenated(&store);
        let loaded = loaded.expect("the new base loads");
        assert_eq!((loaded.state.as_slice(), loaded.deltas), (&b"new-base"[..], 0));
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert_eq!(warnings[0].path, store.delta_path());
        assert!(warnings[0].detail.contains("not the loaded base"), "{}", warnings[0]);
        let _ = fs::remove_dir_all(dir);
    }

    /// A torn or corrupt record, one out of order, or one the caller
    /// refuses ends the load there with one warning: nothing after it is
    /// applied, even a good record.
    #[test]
    fn loading_stops_at_the_first_bad_record_and_never_skips_it() {
        let dir = temp_dir("delta-bad");
        let store = CheckpointStore::new(dir.join("w.ckpt"));
        store.write(b"base").unwrap();
        let tag = base_tag(b"base");
        let first = store.append_delta(tag, 1, b"+1").unwrap();
        let second = store.append_delta(tag, 2, b"+2").unwrap();
        let log = fs::read(store.delta_path()).unwrap();
        let expect_one = |log: &[u8], what: &str| {
            fs::write(store.delta_path(), log).unwrap();
            let (loaded, warnings) = load_concatenated(&store);
            let loaded = loaded.expect("the base loads");
            assert_eq!((loaded.state.as_slice(), loaded.deltas), (&b"base+1"[..], 1), "{what}");
            assert_eq!(warnings.len(), 1, "{what}: {warnings:?}");
        };
        for len in first + 1..first + second {
            expect_one(&log[..len], &format!("cut at {len}"));
        }
        for at in first..first + second {
            let mut flipped = log.clone();
            flipped[at] ^= 0xFF;
            expect_one(&flipped, &format!("byte {at} flipped"));
        }
        // A good third record after a bad second one stays unapplied.
        let mut skipped = log[..first].to_vec();
        let mut out_of_order = Vec::new();
        for (ordinal, payload) in [(3, &b"+3"[..]), (2, b"+2")] {
            fs::remove_file(store.delta_path()).unwrap();
            store.append_delta(tag, ordinal, payload).unwrap();
            out_of_order.extend(fs::read(store.delta_path()).unwrap());
        }
        skipped.extend(&out_of_order);
        expect_one(&skipped, "out of order");
        fs::remove_file(store.delta_path()).unwrap();
        store.append_delta(tag, 1, b"+1").unwrap();
        store.append_delta(tag, 2, b"refuse").unwrap();
        store.append_delta(tag, 3, b"+3").unwrap();
        expect_one(&fs::read(store.delta_path()).unwrap(), "refused");
        let _ = fs::remove_dir_all(dir);
    }

    /// A test job: writes `gen-<tag>` and reports its tag as durable. A
    /// gated job tells `started` it is being encoded, then waits for its
    /// gate to open.
    struct Tagged {
        tag: u8,
        gate: Option<(std::sync::mpsc::Sender<()>, std::sync::mpsc::Receiver<()>)>,
    }

    impl CheckpointJob for Tagged {
        type Done = u8;

        fn encode(self, file: &mut Vec<u8>) -> u8 {
            if let Some((started, gate)) = self.gate {
                started.send(()).unwrap();
                gate.recv().unwrap();
            }
            file.clear();
            file.extend_from_slice(format!("gen-{}", self.tag).as_bytes());
            self.tag
        }
    }

    fn tagged(tag: u8) -> Tagged {
        Tagged { tag, gate: None }
    }

    #[test]
    fn writer_completes_jobs_in_order_and_blocks_past_one_waiting() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{mpsc, Mutex};
        use std::time::Duration;

        let dir = temp_dir("writer-order");
        let store = CheckpointStore::new(dir.join("w.ckpt"));
        let durable = Mutex::new(Vec::new());
        let third_accepted = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writer = CheckpointWriter::spawn(scope, store.clone(), |done| {
                durable.lock().unwrap().push(done.expect("every write succeeds"));
            });
            let (started_tx, started) = mpsc::channel();
            let (open, gate) = mpsc::channel();
            writer.submit(Tagged { tag: 1, gate: Some((started_tx, gate)) }).unwrap();
            started.recv().unwrap(); // job 1 is being written
            writer.submit(tagged(2)).unwrap(); // waits behind it
            std::thread::scope(|submitters| {
                submitters.spawn(|| {
                    writer.submit(tagged(3)).unwrap();
                    third_accepted.store(true, Ordering::SeqCst);
                });
                std::thread::sleep(Duration::from_millis(100));
                assert!(!third_accepted.load(Ordering::SeqCst), "a second waiting job must block");
                open.send(()).unwrap();
            });
            writer.close().expect("every write succeeds");
        });
        assert_eq!(*durable.lock().unwrap(), vec![1, 2, 3]);
        assert_eq!(fs::read(store.path()).unwrap(), b"gen-3");
        assert_eq!(fs::read(store.prev_path()).unwrap(), b"gen-2");
        let _ = fs::remove_dir_all(dir);
    }

    /// A job that is a delta record `+<tag>` whenever the writer has a
    /// base and the log stays shorter than it, else a 200-byte base that
    /// starts `base-<tag>`. A record of a two-byte payload is 50 bytes.
    struct Chained(u8);

    impl CheckpointJob for Chained {
        type Done = (u8, bool);

        fn encode(self, file: &mut Vec<u8>) -> (u8, bool) {
            file.clear();
            file.extend_from_slice(format!("base-{}", self.0).as_bytes());
            file.resize(200, b'.');
            (self.0, false)
        }

        fn encode_delta(
            self,
            record: &mut Vec<u8>,
            chain: &DeltaChain,
        ) -> Result<(u8, bool), Self> {
            record.clear();
            record.extend_from_slice(format!("+{}", self.0).as_bytes());
            if chain.base_bytes == 0 || chain.log_bytes + record.len() >= chain.base_bytes {
                return Err(self);
            }
            Ok((self.0, true))
        }
    }

    /// Runs `tags` through one writer, returning what each became.
    fn write_chained(
        store: &CheckpointStore,
        tags: std::ops::RangeInclusive<u8>,
    ) -> Vec<(u8, bool)> {
        let durable = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let writer = CheckpointWriter::spawn(scope, store.clone(), |done| {
                durable.lock().unwrap().push(done.expect("every write succeeds"));
            });
            for tag in tags {
                writer.submit(Chained(tag)).unwrap();
            }
            writer.close().unwrap();
        });
        durable.into_inner().unwrap()
    }

    #[test]
    fn the_writer_appends_deltas_to_its_own_bases_until_the_log_outgrows_them() {
        let dir = temp_dir("writer-deltas");
        let store = CheckpointStore::new(dir.join("w.ckpt"));
        let kinds = write_chained(&store, 1..=6);
        let deltas: Vec<bool> = kinds.iter().map(|&(_, delta)| delta).collect();
        assert_eq!(deltas, [false, true, true, true, true, false]);
        let kinds = write_chained(&store, 7..=8);
        assert_eq!(kinds, [(7, false), (8, true)], "a new writer starts with a base");
        let (loaded, warnings) = load_concatenated(&store);
        let loaded = loaded.expect("loads");
        assert!(warnings.is_empty(), "{warnings:?}");
        assert!(loaded.state.starts_with(b"base-7.") && loaded.state.ends_with(b".+8"));
        assert_eq!(loaded.deltas, 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_failed_delta_append_is_sticky_and_names_the_log() {
        use std::sync::mpsc;

        let dir = temp_dir("writer-delta-failure");
        let store = CheckpointStore::new(dir.join("w.ckpt"));
        std::thread::scope(|scope| {
            let (done_tx, done) = mpsc::channel();
            let writer = CheckpointWriter::spawn(scope, store.clone(), move |result| {
                done_tx.send(result.map_err(Clone::clone)).unwrap();
            });
            writer.submit(Chained(1)).unwrap();
            writer.submit(Chained(2)).unwrap();
            assert_eq!(done.recv().unwrap().expect("the base is durable"), (1, false));
            assert_eq!(done.recv().unwrap().expect("the record is durable"), (2, true));
            // A directory in place of the log fails the next append.
            let saved = dir.join("saved.delta");
            fs::rename(store.delta_path(), &saved).unwrap();
            fs::create_dir(store.delta_path()).unwrap();
            writer.submit(Chained(3)).unwrap();
            let failure = done.recv().unwrap().expect_err("the append fails");
            assert_eq!(failure.path(), store.delta_path());
            let closed = writer.close().expect_err("the failure is sticky");
            assert_eq!(closed.path(), store.delta_path());
            fs::remove_dir(store.delta_path()).unwrap();
            fs::rename(&saved, store.delta_path()).unwrap();
        });
        let (loaded, warnings) = load_concatenated(&store);
        let loaded = loaded.expect("the base and its whole record load");
        assert!(loaded.state.ends_with(b".+2") && loaded.deltas == 1, "{warnings:?}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn writer_failure_is_sticky_and_keeps_the_last_good_generation() {
        use std::sync::mpsc;

        let dir = temp_dir("writer-failure");
        let store = CheckpointStore::new(dir.join("w.ckpt"));
        std::thread::scope(|scope| {
            let (done_tx, done) = mpsc::channel();
            let writer = CheckpointWriter::spawn(scope, store.clone(), move |result| {
                done_tx.send(result.map_err(Clone::clone)).unwrap();
            });
            writer.submit(tagged(1)).unwrap();
            assert_eq!(done.recv().unwrap().expect("generation 1 is durable"), 1);

            // A directory where the temporary file goes fails the next write.
            fs::create_dir(dir.join("w.ckpt.tmp")).unwrap();
            writer.submit(tagged(2)).expect("the failure is not known yet");
            let failure = done.recv().unwrap().expect_err("generation 2 cannot be written");
            assert_eq!(failure.path(), store.path());
            assert!(failure.to_string().contains("w.ckpt"), "{failure}");

            let next = writer.submit(tagged(3)).expect_err("the failure is sticky");
            assert_eq!(next.path(), store.path());
            assert_eq!(next.io_error().kind(), failure.io_error().kind());
            let closed = writer.close().expect_err("close reports the failure");
            assert_eq!(closed.path(), store.path());
        });
        let (loaded, warnings) = store.load_latest(|_| Ok(()));
        let (bytes, generation) = loaded.expect("generation 1 survives");
        assert_eq!((bytes.as_slice(), generation), (&b"gen-1"[..], Generation::Current));
        assert!(warnings.is_empty());
        let _ = fs::remove_dir_all(dir);
    }
}
