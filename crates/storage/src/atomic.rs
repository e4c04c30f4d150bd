//! Crash-safe atomic file writes — the blessed persistence primitive.
//!
//! The paper's MMDBMS persists the expensive offline training (§4.2) next
//! to the data it serves; a crash mid-`save` must never destroy the only
//! copy. Every byte the suite writes to a persistence path goes through
//! [`atomic_write`], which follows the classic
//! write-tempfile → fsync → rotate → rename discipline:
//!
//! 1. the payload is written to a unique temp file *next to* the
//!    destination (same filesystem, so the final rename is atomic) and
//!    fsynced;
//! 2. the previous generation, if any, is rotated to `<dest>.bak`
//!    ([`bak_path`]) — the fallback generation the loaders recover from;
//! 3. the temp file is renamed over the destination and the parent
//!    directory is fsynced (on Unix), making the publish durable.
//!
//! A crash at any point leaves either the old generation, the new
//! generation, or (in the window between the two renames) no destination
//! but a valid `.bak` — never a torn destination file. Torn state is
//! confined to temp files, which later writes ignore.
//!
//! Concurrent writers to one path never fail each other: the last publish
//! rename wins, and a writer whose rotate finds the destination already
//! rotated away by a rival skips the rotate and publishes.
//!
//! Transient I/O errors (`Interrupted`, `WouldBlock`, `TimedOut`) are
//! retried with bounded exponential backoff; everything else fails fast.
//! Deterministic fault injection threads through the [`IoFault`] hook so
//! the retry/backoff/fallback machinery is testable without real disk
//! failures (see `hmmm_core::fault`).
//!
//! The `hmmm-lint` rule `naked-persist-write` forbids `fs::write` /
//! `File::create` in persistence paths outside this module, so the
//! discipline cannot silently regress.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Deterministic I/O fault hook: consulted before each filesystem
/// operation of an atomic write. Returning `Some(err)` makes that
/// operation fail with `err` instead of touching the disk.
///
/// Implementations must be thread-safe; the injection schedule should be
/// deterministic for a fixed plan (see `hmmm_core::fault::FaultPlan`).
pub trait IoFault: Send + Sync {
    /// Called with a static operation label (`"create_tmp"`, `"write"`,
    /// `"fsync"`, `"rotate_bak"`, `"publish"`); `Some` fails the op.
    fn inject(&self, op: &'static str) -> Option<io::Error>;
}

/// Tuning for [`atomic_write`]: bounded retry/backoff and the optional
/// fault-injection hook.
#[derive(Clone, Copy, Default)]
pub struct AtomicWriteOptions<'a> {
    /// Transient-error retries after the first attempt (0 = fail on the
    /// first transient error). [`AtomicWriteOptions::default`] uses
    /// [`DEFAULT_RETRIES`].
    pub retries: Option<u32>,
    /// Backoff before the first retry, doubled per attempt.
    /// [`AtomicWriteOptions::default`] uses [`DEFAULT_BACKOFF`].
    pub backoff: Option<Duration>,
    /// Fault-injection hook (`None` in production).
    pub fault: Option<&'a dyn IoFault>,
}

/// Default transient-error retry budget.
pub const DEFAULT_RETRIES: u32 = 3;
/// Default first-retry backoff (doubled per attempt).
pub const DEFAULT_BACKOFF: Duration = Duration::from_millis(2);

/// What one [`atomic_write`] did, for the degraded-path metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AtomicWriteReport {
    /// Transient-error retries that were needed (0 on the happy path) —
    /// feeds the `storage.atomic_write_retries` counter.
    pub retries: u32,
    /// Whether a previous generation was rotated to `.bak`.
    pub bak_rotated: bool,
}

/// The fallback-generation path for `path`: the file name with `.bak`
/// appended (`catalog.bin` → `catalog.bin.bak`), kept by [`atomic_write`]
/// and recovered by the loaders on checksum/parse failure.
pub fn bak_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".bak");
    path.with_file_name(name)
}

/// `true` for I/O error kinds worth retrying with backoff.
fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Process-wide temp-file discriminator so concurrent writers (threads or
/// tests) never collide on the same temp name.
fn next_tmp_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // ordering: Relaxed — a uniqueness ticket, not a synchronization point;
    // fetch_add is atomic regardless of ordering, and no other memory
    // depends on it. Registered in RELAXED_ALLOWLIST (hmmm-analyze).
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn check(fault: Option<&dyn IoFault>, op: &'static str) -> io::Result<()> {
    match fault.and_then(|f| f.inject(op)) {
        Some(err) => Err(err),
        None => Ok(()),
    }
}

/// One write attempt: tmp → fsync → rotate `.bak` → publish → dir fsync.
fn attempt(
    path: &Path,
    tmp: &Path,
    bytes: &[u8],
    fault: Option<&dyn IoFault>,
) -> io::Result<bool> {
    check(fault, "create_tmp")?;
    let mut file = File::create(tmp)?;
    check(fault, "write")?;
    file.write_all(bytes)?;
    check(fault, "fsync")?;
    file.sync_all()?;
    drop(file);

    let mut bak_rotated = false;
    if path.exists() {
        check(fault, "rotate_bak")?;
        bak_rotated = match fs::rename(path, bak_path(path)) {
            Ok(()) => true,
            // A concurrent writer rotated `path` away between our check
            // and this rename. The generation we would have rotated is in
            // `.bak` already, so skip the rotate and publish: last rename
            // wins, and neither writer fails.
            Err(err) if err.kind() == io::ErrorKind::NotFound => false,
            Err(err) => return Err(err),
        };
    }
    check(fault, "publish")?;
    fs::rename(tmp, path)?;

    // Make the publish durable: fsync the directory entry (best-effort —
    // some filesystems refuse directory fsync, and the rename itself is
    // already atomic).
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    Ok(bak_rotated)
}

/// Atomically replaces `path` with `bytes`, keeping the previous
/// generation at [`bak_path`] and retrying transient failures with
/// bounded exponential backoff.
///
/// # Errors
///
/// The last I/O error once the retry budget is exhausted, or immediately
/// for non-transient errors. The destination is never left torn: on
/// failure it still holds whichever generation was last published (or, in
/// the narrow rotate window, the `.bak` holds it).
pub fn atomic_write(
    path: impl AsRef<Path>,
    bytes: &[u8],
    opts: &AtomicWriteOptions<'_>,
) -> io::Result<AtomicWriteReport> {
    let path = path.as_ref();
    let mut tmp_name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    tmp_name.push(format!(".tmp.{}.{}", std::process::id(), next_tmp_id()));
    let tmp = path.with_file_name(tmp_name);

    let max_retries = opts.retries.unwrap_or(DEFAULT_RETRIES);
    let backoff = opts.backoff.unwrap_or(DEFAULT_BACKOFF);
    let mut report = AtomicWriteReport::default();
    loop {
        match attempt(path, &tmp, bytes, opts.fault) {
            Ok(bak_rotated) => {
                report.bak_rotated |= bak_rotated;
                return Ok(report);
            }
            Err(err) if report.retries < max_retries && is_transient(err.kind()) => {
                let _ = fs::remove_file(&tmp);
                std::thread::sleep(backoff.saturating_mul(1 << report.retries.min(10)));
                report.retries += 1;
            }
            Err(err) => {
                let _ = fs::remove_file(&tmp);
                return Err(err);
            }
        }
    }
}

/// A unique, self-cleaning test directory under the system temp dir.
///
/// Persistence tests used to share fixed directories under
/// `std::env::temp_dir()` — parallel test runs collided and a panic
/// before the trailing `remove_dir_all` leaked litter. `TestDir` gives
/// every test its own `prefix.<pid>.<n>` directory and removes it on
/// drop (including the unwind path when an assertion fails).
#[derive(Debug)]
pub struct TestDir {
    path: PathBuf,
}

impl TestDir {
    /// Creates a fresh unique directory. Panics if creation fails (tests
    /// cannot proceed without it).
    pub fn new(prefix: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "{prefix}.{}.{}",
            std::process::id(),
            next_tmp_id()
        ));
        fs::create_dir_all(&path).expect("create test dir");
        TestDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A file path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Scripted fault: fails the ops whose global sequence numbers are in
    /// the plan (each inject call consumes one ticket).
    #[derive(Debug)]
    struct ScriptedFault {
        fail_ops: Vec<u64>,
        next: Mutex<u64>,
        kind: io::ErrorKind,
    }

    impl ScriptedFault {
        fn new(fail_ops: &[u64], kind: io::ErrorKind) -> Self {
            ScriptedFault {
                fail_ops: fail_ops.to_vec(),
                next: Mutex::new(0),
                kind,
            }
        }
    }

    impl IoFault for ScriptedFault {
        fn inject(&self, op: &'static str) -> Option<io::Error> {
            let mut next = self.next.lock().unwrap();
            let n = *next;
            *next += 1;
            self.fail_ops
                .contains(&n)
                .then(|| io::Error::new(self.kind, format!("injected on op {n} ({op})")))
        }
    }

    #[test]
    fn writes_and_rotates_generations() {
        let dir = TestDir::new("hmmm_atomic");
        let dest = dir.file("data.bin");
        let r1 = atomic_write(&dest, b"gen1", &AtomicWriteOptions::default()).unwrap();
        assert_eq!(r1.retries, 0);
        assert!(!r1.bak_rotated);
        assert_eq!(fs::read(&dest).unwrap(), b"gen1");
        assert!(!bak_path(&dest).exists());

        let r2 = atomic_write(&dest, b"gen2", &AtomicWriteOptions::default()).unwrap();
        assert!(r2.bak_rotated);
        assert_eq!(fs::read(&dest).unwrap(), b"gen2");
        assert_eq!(fs::read(bak_path(&dest)).unwrap(), b"gen1");
    }

    #[test]
    fn transient_faults_are_retried_and_counted() {
        let dir = TestDir::new("hmmm_atomic");
        let dest = dir.file("data.bin");
        // Fail the first two ops (both "create_tmp" of attempts 1 and 2).
        let fault = ScriptedFault::new(&[0, 1], io::ErrorKind::Interrupted);
        let report = atomic_write(
            &dest,
            b"payload",
            &AtomicWriteOptions {
                backoff: Some(Duration::from_micros(10)),
                fault: Some(&fault),
                ..AtomicWriteOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.retries, 2);
        assert_eq!(fs::read(&dest).unwrap(), b"payload");
    }

    #[test]
    fn retry_budget_is_bounded() {
        let dir = TestDir::new("hmmm_atomic");
        let dest = dir.file("data.bin");
        let fault = ScriptedFault::new(&[0, 1, 2, 3, 4, 5, 6, 7], io::ErrorKind::Interrupted);
        let err = atomic_write(
            &dest,
            b"payload",
            &AtomicWriteOptions {
                retries: Some(2),
                backoff: Some(Duration::from_micros(10)),
                fault: Some(&fault),
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert!(!dest.exists());
    }

    #[test]
    fn non_transient_faults_fail_fast() {
        let dir = TestDir::new("hmmm_atomic");
        let dest = dir.file("data.bin");
        let fault = ScriptedFault::new(&[0], io::ErrorKind::PermissionDenied);
        let err = atomic_write(
            &dest,
            b"payload",
            &AtomicWriteOptions {
                fault: Some(&fault),
                ..AtomicWriteOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
    }

    #[test]
    fn fault_mid_rotate_leaves_a_recoverable_generation() {
        let dir = TestDir::new("hmmm_atomic");
        let dest = dir.file("data.bin");
        atomic_write(&dest, b"gen1", &AtomicWriteOptions::default()).unwrap();
        // Ops per attempt: create_tmp, write, fsync, rotate_bak, publish.
        // Failing "publish" (op 4) non-transiently models a crash in the
        // window after the old generation moved to .bak.
        let fault = ScriptedFault::new(&[4], io::ErrorKind::PermissionDenied);
        atomic_write(
            &dest,
            b"gen2",
            &AtomicWriteOptions {
                fault: Some(&fault),
                ..AtomicWriteOptions::default()
            },
        )
        .unwrap_err();
        // The destination is gone but the previous generation survives.
        assert!(!dest.exists());
        assert_eq!(fs::read(bak_path(&dest)).unwrap(), b"gen1");
    }

    /// Two-writer rendezvous: both pass the `path.exists()` check before
    /// either rotates, and both finish their rotate before either
    /// publishes, so the renames race in one deterministic shape. A writer
    /// that errors out never reaches its publish; the other then gives up
    /// waiting after a timeout rather than hang, and the error fails the
    /// test.
    #[derive(Default)]
    struct Rendezvous {
        arrived: Mutex<[usize; 2]>,
        moved: std::sync::Condvar,
    }

    impl Rendezvous {
        fn meet(&self, stage: usize) {
            let mut arrived = self.arrived.lock().unwrap();
            arrived[stage] += 1;
            self.moved.notify_all();
            let timeout = Duration::from_secs(5);
            drop(self.moved.wait_timeout_while(arrived, timeout, |a| a[stage] < 2));
        }
    }

    impl IoFault for Rendezvous {
        fn inject(&self, op: &'static str) -> Option<io::Error> {
            match op {
                "rotate_bak" => self.meet(0),
                "publish" => self.meet(1),
                _ => {}
            }
            None
        }
    }

    #[test]
    fn concurrent_writers_racing_the_rotate_both_succeed() {
        let dir = TestDir::new("hmmm_atomic");
        let dest = dir.file("data.bin");
        atomic_write(&dest, b"seed", &AtomicWriteOptions::default()).unwrap();
        let fault = Rendezvous::default();
        let opts = AtomicWriteOptions {
            fault: Some(&fault),
            ..AtomicWriteOptions::default()
        };
        let (dest_ref, opts_ref) = (&dest, &opts);
        let reports: Vec<AtomicWriteReport> = std::thread::scope(|s| {
            let writers: Vec<_> = [&b"gen-a"[..], &b"gen-b"[..]]
                .into_iter()
                .map(|bytes| s.spawn(move || atomic_write(dest_ref, bytes, opts_ref)))
                .collect();
            writers
                .into_iter()
                .map(|w| w.join().unwrap().expect("neither writer may fail"))
                .collect()
        });
        // Exactly one writer rotated the seed; the other found it gone.
        assert_eq!(reports.iter().filter(|r| r.bak_rotated).count(), 1);
        assert_eq!(fs::read(bak_path(&dest)).unwrap(), b"seed");
        let last = fs::read(&dest).unwrap();
        assert!(last == b"gen-a" || last == b"gen-b", "torn: {last:?}");
    }

    #[test]
    fn bak_path_appends_suffix() {
        assert_eq!(
            bak_path(Path::new("/a/b/catalog.bin")),
            PathBuf::from("/a/b/catalog.bin.bak")
        );
        assert_eq!(bak_path(Path::new("model.json")), PathBuf::from("model.json.bak"));
    }

    #[test]
    fn test_dirs_are_unique_and_cleaned() {
        let a = TestDir::new("hmmm_atomic_unique");
        let b = TestDir::new("hmmm_atomic_unique");
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().exists());
    }
}
