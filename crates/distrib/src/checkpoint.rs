//! Atomic, generationed checkpoint files: [`CheckpointStore`].
//!
//! A checkpoint that can be *torn* by the crash it exists to survive is
//! worse than none — the classic failure is a process dying mid-`write(2)`
//! and leaving a half-file that poisons the restart. This store makes the
//! standard guarantees explicit:
//!
//! * **Atomic replace.** A checkpoint is written to a temporary file in the
//!   same directory, fsynced, and `rename(2)`d over the live path. Readers
//!   see the old complete file or the new complete file, never a mixture.
//! * **A `.prev` generation.** Before the rename, the previous live file is
//!   demoted to `<path>.prev` (via hard link + rename, so the live path
//!   never has a not-found gap a concurrent reader could fall into). If the
//!   *content* of the newest checkpoint is bad (corrupted on disk, or torn
//!   by a filesystem without atomic-rename durability), the loader falls
//!   back one generation instead of failing.
//! * **Typed fallback.** [`CheckpointStore::load_latest`] validates each
//!   generation with a caller-supplied check (normally
//!   [`decode_checkpoint`](crate::wire::decode_checkpoint), whose trailing
//!   checksum covers the whole file) and reports every skipped generation as
//!   a [`CheckpointWarning`] — the caller can log it, count it, or surface
//!   it to an operator, but is never silently resumed from stale state.
//!
//! [`CheckpointWriter`] takes the store off the caller's thread: the caller
//! captures its state at the exact stream point and submits it, and one
//! background thread encodes, writes and fsyncs each checkpoint in order.
//! `PipelineRunner` and the `privacy-shardd` worker both checkpoint through
//! it.

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

/// An atomically replaced, two-generation checkpoint file.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    base: PathBuf,
}

impl CheckpointStore {
    /// A store writing to `base` (and `base.prev` / `base.tmp` beside it).
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

    fn tmp_path(&self) -> PathBuf {
        let mut name = self.base.as_os_str().to_owned();
        name.push(".tmp");
        PathBuf::from(name)
    }

    fn prev_tmp_path(&self) -> PathBuf {
        let mut name = self.base.as_os_str().to_owned();
        name.push(".prev.tmp");
        PathBuf::from(name)
    }

    /// Atomically replaces the checkpoint with `bytes`, demoting the old
    /// live file to the `.prev` generation first.
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
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be created,
    /// the temporary file cannot be written and fsynced, or a link/rename
    /// fails. On error the live file is either the old generation or the
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
        Ok(())
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
        let candidates =
            [(self.base.clone(), Generation::Current), (self.prev_path(), Generation::Previous)];
        for (path, generation) in candidates {
            if !path.exists() {
                continue;
            }
            match fs::read(&path) {
                Ok(bytes) => match validate(&bytes) {
                    Ok(()) => return (Some((bytes, generation)), warnings),
                    Err(detail) => warnings.push(CheckpointWarning { path, detail }),
                },
                Err(error) => warnings
                    .push(CheckpointWarning { path, detail: format!("unreadable: {error}") }),
            }
        }
        (None, warnings)
    }
}

/// A checkpoint captured at a stream point, waiting to be encoded by a
/// [`CheckpointWriter`].
pub trait CheckpointJob: Send {
    /// What the writer's on-durable hook receives once the file is durable.
    type Done;

    /// Encodes the checkpoint file into `file`, replacing its contents and
    /// reusing its allocation. Consuming the job releases the captured
    /// state before the slow write starts.
    fn encode(self, file: &mut Vec<u8>) -> Self::Done;
}

/// A bare monitor snapshot is a checkpoint file of its own.
impl CheckpointJob for MonitorSnapshot {
    type Done = ();

    fn encode(self, file: &mut Vec<u8>) {
        self.encode_into(file);
    }
}

/// A checkpoint that could not be made durable: the store's path and the
/// I/O error. Cloning shares the error, so a failure can be reported from
/// every later call.
#[derive(Debug, Clone)]
pub struct CheckpointWriteError {
    path: PathBuf,
    error: Arc<std::io::Error>,
}

impl CheckpointWriteError {
    /// The live checkpoint path of the store that failed.
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
/// and reuses, writes it with [`CheckpointStore::write`], and then calls the
/// on-durable hook with [`CheckpointJob::Done`]. At most one job waits
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
            for job in queue {
                let done = job.encode(&mut file);
                if let Err(error) = store.write(&file) {
                    let error = CheckpointWriteError {
                        path: store.path().to_owned(),
                        error: Arc::new(error),
                    };
                    on_done(Err(&error));
                    // Set before the queue drops, so a submit that finds
                    // the thread gone always finds the error.
                    let _ = failed.set(error);
                    return;
                }
                on_done(Ok(done));
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
