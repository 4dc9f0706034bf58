//! Durable result tier: a crash-safe append-only log + snapshot of
//! canonical `(experiment, scale) → result-bytes` entries.
//!
//! The serving tier's byte-identity guarantee (every surface renders the
//! same canonical results document for a key) makes cached responses
//! safely reusable across *process lifetimes*, not just within one. This
//! crate persists them: an `mds-serve` backend opened with `--store`
//! replays the store into its result cache at boot, so a restart, deploy,
//! or `kill -9` does not re-pay the ~670× cold/warm gap across the key
//! space.
//!
//! # On-disk format
//!
//! A store directory holds two files, both in the same record format:
//!
//! - `log.mds` — the append-only live tail; every cache fill appends one
//!   record, and a batch of fills appends its records with one `write`
//!   and one `fsync`.
//! - `snapshot.mds` — the compacted prefix: one record per live key,
//!   rewritten atomically (`write tmp`, `fsync`, `rename`) when the log
//!   outgrows its threshold, after which the log is truncated.
//!
//! Each file starts with an 8-byte magic (`mdsstor1`, version folded into
//! the last byte). A record is:
//!
//! ```text
//! u64 checksum   FNV-1a 64 over the remaining record bytes
//! u64 epoch      output epoch the value was computed under
//! u32 key_len    length of the key in bytes
//! u32 val_len    length of the value in bytes
//! [u8] key       canonical cache key, e.g. "fig5@tiny"
//! [u8] value     canonical result bytes (the repro JSON document)
//! ```
//!
//! All integers little-endian. Recovery scans each file from the header:
//!
//! - A record that extends past end-of-file is a **torn tail** (the
//!   process died mid-append); the file is truncated to the last good
//!   record and the store keeps appending from there.
//! - A checksum mismatch (or an implausible length field) means the log
//!   was corrupted in place; everything from that point on is discarded —
//!   the classic write-ahead-log rule, because lengths live inside the
//!   checksummed region and nothing after an unverifiable record can be
//!   trusted. Valid entries before the corruption survive.
//! - A record whose epoch differs from the store's configured epoch is
//!   valid but **stale**: the simulator changed since it was written, so
//!   replaying it would serve wrong bytes. It is skipped (counted) and
//!   disappears entirely at the next compaction.
//!
//! Within one epoch, later records win: the log is a history, the
//! in-memory map is its fold.
//!
//! Everything is plain `std`: no dependencies, no unsafe code.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// File magic: `mdsstor` + format version `1`.
pub const MAGIC: [u8; 8] = *b"mdsstor1";

/// Fixed bytes per record before the key: checksum + epoch + two lengths.
const RECORD_HEAD: usize = 8 + 8 + 4 + 4;

/// Hard cap on key length; anything larger in a length field is treated
/// as corruption, not a record.
pub const MAX_KEY_BYTES: usize = 4 * 1024;

/// Hard cap on value length; result documents are a few KB, so 64 MiB is
/// generous headroom while still catching flipped length bytes.
pub const MAX_VALUE_BYTES: usize = 64 * 1024 * 1024;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// FNV-1a 64 over `bytes` — the record checksum. Deterministic and
/// dependency-free; collisions are irrelevant here because the threat
/// model is accidental corruption, not an adversary.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Serializes one record (checksum included) into `out`.
fn encode_record(out: &mut Vec<u8>, epoch: u64, key: &str, value: &str) {
    let payload_at = out.len() + 8;
    out.extend_from_slice(&[0u8; 8]); // checksum placeholder
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(value.as_bytes());
    let checksum = fnv1a(&out[payload_at..]);
    out[payload_at - 8..payload_at].copy_from_slice(&checksum.to_le_bytes());
}

/// Store tunables.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// The output epoch current values are computed under. Records
    /// carrying any other epoch are skipped at recovery and dropped at
    /// compaction.
    pub epoch: u64,
    /// Compact (snapshot + truncate the log) once the log exceeds this
    /// many bytes. `0` disables automatic compaction.
    pub compact_threshold_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            epoch: 0,
            compact_threshold_bytes: 8 * 1024 * 1024,
        }
    }
}

/// What recovery found when the store was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Valid current-epoch records applied from the snapshot.
    pub snapshot_records: u64,
    /// Valid current-epoch records applied from the log.
    pub log_records: u64,
    /// Valid records skipped because their epoch is stale.
    pub stale_skipped: u64,
    /// Bytes discarded as a torn tail or in-place corruption (summed
    /// across both files).
    pub corrupt_bytes: u64,
}

/// Mutable store state behind one lock: the fold of the on-disk history
/// plus the open log handle.
struct Inner {
    live: HashMap<String, Arc<str>>,
    log: File,
    log_bytes: u64,
    snapshot_bytes: u64,
}

/// A durable key → canonical-result-bytes store over one directory.
///
/// Thread-safe behind interior mutability: the serving tier holds an
/// `Arc<Store>` and appends from any worker.
pub struct Store {
    dir: PathBuf,
    config: StoreConfig,
    inner: Mutex<Inner>,
    recovery: Recovery,
    appends: AtomicU64,
    append_errors: AtomicU64,
    compactions: AtomicU64,
}

/// One file's scan outcome.
struct Scan {
    /// Byte length of the valid prefix (header included).
    valid_len: u64,
    /// Valid current-epoch records applied.
    applied: u64,
    /// Valid records skipped for a stale epoch.
    stale: u64,
    /// Bytes past the valid prefix (torn or corrupt).
    dropped: u64,
}

/// Folds one file's records into `live` under the recovery policy
/// described in the module docs.
fn scan(bytes: &[u8], epoch: u64, live: &mut HashMap<String, Arc<str>>) -> Scan {
    let mut out = Scan {
        valid_len: 0,
        applied: 0,
        stale: 0,
        dropped: bytes.len() as u64,
    };
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        // No (or foreign) header: nothing here is trustworthy.
        return out;
    }
    let mut at = MAGIC.len();
    out.valid_len = at as u64;
    while at < bytes.len() {
        let rest = &bytes[at..];
        if rest.len() < RECORD_HEAD {
            break; // torn tail: a partial record head
        }
        let checksum = u64::from_le_bytes(rest[0..8].try_into().expect("8 bytes"));
        let rec_epoch = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
        let key_len = u32::from_le_bytes(rest[16..20].try_into().expect("4 bytes")) as usize;
        let val_len = u32::from_le_bytes(rest[20..24].try_into().expect("4 bytes")) as usize;
        if key_len == 0 || key_len > MAX_KEY_BYTES || val_len > MAX_VALUE_BYTES {
            break; // implausible lengths: corruption, not a record
        }
        let total = RECORD_HEAD + key_len + val_len;
        if rest.len() < total {
            break; // torn tail: the record extends past end-of-file
        }
        if fnv1a(&rest[8..total]) != checksum {
            break; // in-place corruption: nothing after this is trusted
        }
        let key = match std::str::from_utf8(&rest[RECORD_HEAD..RECORD_HEAD + key_len]) {
            Ok(k) => k,
            Err(_) => break,
        };
        let value = match std::str::from_utf8(&rest[RECORD_HEAD + key_len..total]) {
            Ok(v) => v,
            Err(_) => break,
        };
        if rec_epoch == epoch {
            live.insert(key.to_string(), Arc::from(value));
            out.applied += 1;
        } else {
            out.stale += 1;
        }
        at += total;
        out.valid_len = at as u64;
    }
    out.dropped = bytes.len() as u64 - out.valid_len;
    out
}

/// Best-effort directory fsync, so creates and renames inside `dir`
/// survive a crash. Errors are surfaced: durability is the entire point.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

impl Store {
    /// Opens (creating if necessary) the store in `dir`, recovering the
    /// snapshot and log: torn tails are truncated, corruption discards
    /// the unverifiable suffix, stale-epoch records are skipped.
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> io::Result<Store> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut live = HashMap::new();
        let mut recovery = Recovery::default();

        // Snapshot first (the compacted prefix), then the log (the live
        // tail): within an epoch, log records override snapshot records.
        let snapshot_path = dir.join("snapshot.mds");
        let mut snapshot_bytes = 0u64;
        if snapshot_path.exists() {
            let bytes = std::fs::read(&snapshot_path)?;
            let s = scan(&bytes, config.epoch, &mut live);
            recovery.snapshot_records = s.applied;
            recovery.stale_skipped += s.stale;
            recovery.corrupt_bytes += s.dropped;
            if s.valid_len < bytes.len() as u64 {
                // Truncate in place so the next scan starts clean. A
                // snapshot with no valid header is emptied entirely.
                let f = OpenOptions::new().write(true).open(&snapshot_path)?;
                f.set_len(s.valid_len)?;
                f.sync_all()?;
            }
            snapshot_bytes = s.valid_len;
        }

        let log_path = dir.join("log.mds");
        let mut log = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&log_path)?;
        let mut bytes = Vec::new();
        log.read_to_end(&mut bytes)?;
        let created = bytes.is_empty();
        let log_bytes = if created {
            log.write_all(&MAGIC)?;
            log.sync_all()?;
            sync_dir(&dir)?;
            MAGIC.len() as u64
        } else {
            let s = scan(&bytes, config.epoch, &mut live);
            recovery.log_records = s.applied;
            recovery.stale_skipped += s.stale;
            recovery.corrupt_bytes += s.dropped;
            if s.valid_len < bytes.len() as u64 {
                log.set_len(s.valid_len)?;
                log.sync_all()?;
            }
            if s.valid_len == 0 {
                // The whole file was garbage (no valid header): reset it
                // to an empty, well-formed log. `read_to_end` left the
                // cursor at the old EOF, so rewind before writing.
                log.seek(SeekFrom::Start(0))?;
                log.write_all(&MAGIC)?;
                log.sync_all()?;
                MAGIC.len() as u64
            } else {
                s.valid_len
            }
        };
        log.seek(SeekFrom::End(0))?;

        Ok(Store {
            dir,
            config,
            inner: Mutex::new(Inner {
                live,
                log,
                log_bytes,
                snapshot_bytes,
            }),
            recovery,
            appends: AtomicU64::new(0),
            append_errors: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
        })
    }

    /// What recovery found at open time.
    pub fn recovery(&self) -> Recovery {
        self.recovery
    }

    /// The output epoch this store tags appends with.
    pub fn epoch(&self) -> u64 {
        self.config.epoch
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one entry (`write` + `fsync`) and folds it into the live
    /// map: [`Store::append_all`] with a one-record batch.
    ///
    /// # Errors
    ///
    /// As for [`Store::append_all`].
    pub fn append(&self, key: &str, value: &str) -> io::Result<()> {
        self.append_all(&[(key, value)])
    }

    /// Appends a batch of entries with one `write_all` and one `fsync`,
    /// then folds them into the live map in order (so a key repeated in
    /// the batch ends at its last value).
    ///
    /// A crash mid-write leaves a torn tail inside the batch; recovery
    /// keeps the longest valid record prefix, exactly as for single
    /// appends. Each record counts as one append.
    ///
    /// Appends never compact inline: a compaction rewrites the whole
    /// snapshot under the store lock, which would turn the unlucky
    /// threshold-crossing append into a multi-millisecond stall on the
    /// serving path. Crossing the threshold only marks compaction as
    /// due; a maintenance point (the serving tier's background sweep, or
    /// any caller of [`Store::compact_if_due`]) performs it off the
    /// request path.
    ///
    /// # Errors
    ///
    /// `InvalidInput` (before anything is written) for an empty or
    /// oversized key or value anywhere in the batch; otherwise any I/O
    /// error from the write or fsync. On an I/O error the log is cut
    /// back to its last good length and the in-memory map is left
    /// untouched, so the store never claims durability it does not have.
    pub fn append_all<K: AsRef<str>, V: AsRef<str>>(&self, entries: &[(K, V)]) -> io::Result<()> {
        let mut records = Vec::new();
        for (key, value) in entries {
            let (key, value) = (key.as_ref(), value.as_ref());
            if key.is_empty() || key.len() > MAX_KEY_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("store key must be 1..={MAX_KEY_BYTES} bytes"),
                ));
            }
            if value.len() > MAX_VALUE_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("store value exceeds {MAX_VALUE_BYTES} bytes"),
                ));
            }
            encode_record(&mut records, self.config.epoch, key, value);
        }
        if entries.is_empty() {
            return Ok(());
        }

        let mut inner = lock(&self.inner);
        let result = inner
            .log
            .write_all(&records)
            .and_then(|()| inner.log.sync_data());
        if let Err(e) = result {
            self.append_errors.fetch_add(1, Ordering::Relaxed);
            // The file offset may now sit mid-record; recovery would
            // truncate the torn tail, and so do we, so a later append
            // doesn't interleave with the partial one.
            let good = inner.log_bytes;
            let _ = inner.log.set_len(good);
            let _ = inner.log.seek(SeekFrom::End(0));
            return Err(e);
        }
        inner.log_bytes += records.len() as u64;
        for (key, value) in entries {
            inner
                .live
                .insert(key.as_ref().to_string(), Arc::from(value.as_ref()));
        }
        self.appends
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Whether the log has outgrown its compaction threshold. Always
    /// `false` when automatic compaction is disabled (`threshold == 0`).
    pub fn compaction_due(&self) -> bool {
        let threshold = self.config.compact_threshold_bytes;
        threshold > 0 && lock(&self.inner).log_bytes > threshold
    }

    /// Compacts if (and only if) the log has outgrown its threshold —
    /// the drain-point half of the deferred-compaction contract (see
    /// [`Store::append`]). Returns whether a compaction ran.
    pub fn compact_if_due(&self) -> io::Result<bool> {
        if !self.compaction_due() {
            return Ok(false);
        }
        self.compact()?;
        Ok(true)
    }

    /// The stored value for `key`, if any.
    pub fn get(&self, key: &str) -> Option<Arc<str>> {
        lock(&self.inner).live.get(key).cloned()
    }

    /// Iterates every live entry in key order — the boot-time replay API.
    /// The order is deterministic so prewarm logs and tests are stable.
    pub fn iter(&self) -> impl Iterator<Item = (String, Arc<str>)> {
        let mut entries: Vec<(String, Arc<str>)> = lock(&self.inner)
            .live
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.into_iter()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        lock(&self.inner).live.len()
    }

    /// Whether the store holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes in the append-only log (header included).
    pub fn log_bytes(&self) -> u64 {
        lock(&self.inner).log_bytes
    }

    /// Bytes in the snapshot file (header included; 0 before the first
    /// compaction).
    pub fn snapshot_bytes(&self) -> u64 {
        lock(&self.inner).snapshot_bytes
    }

    /// Records appended since open (a batch counts each of its records).
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Failed appends (single or batch) since open.
    pub fn append_errors(&self) -> u64 {
        self.append_errors.load(Ordering::Relaxed)
    }

    /// Compactions performed since open.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Compacts now: writes every live entry to `snapshot.tmp`, fsyncs,
    /// atomically renames it over `snapshot.mds`, then truncates the log
    /// to an empty header. Stale-epoch and superseded records vanish
    /// here. Crash-safe at every step: a crash between rename and
    /// truncate merely replays some log records that the snapshot
    /// already holds (last-wins makes that idempotent).
    pub fn compact(&self) -> io::Result<()> {
        let mut inner = lock(&self.inner);
        let mut entries: Vec<(&String, &Arc<str>)> = inner.live.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let mut bytes = Vec::with_capacity(MAGIC.len() + entries.len() * 256);
        bytes.extend_from_slice(&MAGIC);
        for (key, value) in entries {
            encode_record(&mut bytes, self.config.epoch, key, value);
        }
        let tmp = self.dir.join("snapshot.tmp");
        let snapshot = self.dir.join("snapshot.mds");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &snapshot)?;
        sync_dir(&self.dir)?;
        inner.snapshot_bytes = bytes.len() as u64;
        inner.log.set_len(MAGIC.len() as u64)?;
        inner.log.sync_all()?;
        inner.log.seek(SeekFrom::End(0))?;
        inner.log_bytes = MAGIC.len() as u64;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("epoch", &self.config.epoch)
            .field("len", &self.len())
            .field("log_bytes", &self.log_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_harness::tempdir::TempDir;

    fn open(dir: &Path, epoch: u64) -> Store {
        Store::open(
            dir,
            StoreConfig {
                epoch,
                compact_threshold_bytes: 0,
            },
        )
        .expect("open store")
    }

    #[test]
    fn appends_survive_reopen_with_last_write_winning() {
        let tmp = TempDir::new("mds-store-reopen").unwrap();
        {
            let store = open(tmp.path(), 7);
            store.append("fig5@tiny", "v1").unwrap();
            store.append("table1@tiny", "t1").unwrap();
            store.append("fig5@tiny", "v2").unwrap();
            assert_eq!(store.appends(), 3);
            assert_eq!(store.len(), 2);
        }
        let store = open(tmp.path(), 7);
        assert_eq!(store.recovery().log_records, 3);
        assert_eq!(store.get("fig5@tiny").as_deref(), Some("v2"));
        assert_eq!(store.get("table1@tiny").as_deref(), Some("t1"));
        let keys: Vec<String> = store.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["fig5@tiny", "table1@tiny"], "iter is key-sorted");
    }

    #[test]
    fn epoch_change_invalidates_stored_entries() {
        let tmp = TempDir::new("mds-store-epoch").unwrap();
        {
            let store = open(tmp.path(), 1);
            store.append("fig5@tiny", "old bytes").unwrap();
        }
        let store = open(tmp.path(), 2);
        assert!(
            store.get("fig5@tiny").is_none(),
            "stale epoch must not serve"
        );
        assert_eq!(store.recovery().stale_skipped, 1);
        // New-epoch appends coexist in the log until compaction.
        store.append("fig5@tiny", "new bytes").unwrap();
        store.compact().unwrap();
        let again = open(tmp.path(), 2);
        assert_eq!(again.get("fig5@tiny").as_deref(), Some("new bytes"));
        assert_eq!(
            again.recovery().stale_skipped,
            0,
            "compaction dropped stale"
        );
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_resumes() {
        let tmp = TempDir::new("mds-store-torn").unwrap();
        {
            let store = open(tmp.path(), 0);
            store.append("a@tiny", "alpha").unwrap();
            store.append("b@tiny", "beta").unwrap();
        }
        // Simulate a crash mid-append: chop the last record in half.
        let log = tmp.path().join("log.mds");
        let bytes = std::fs::read(&log).unwrap();
        std::fs::write(&log, &bytes[..bytes.len() - 3]).unwrap();

        let store = open(tmp.path(), 0);
        assert_eq!(store.recovery().log_records, 1);
        assert!(store.recovery().corrupt_bytes > 0);
        assert_eq!(store.get("a@tiny").as_deref(), Some("alpha"));
        assert!(store.get("b@tiny").is_none());
        store.append("c@tiny", "gamma").unwrap();
        let again = open(tmp.path(), 0);
        assert_eq!(again.get("c@tiny").as_deref(), Some("gamma"));
        assert_eq!(again.recovery().corrupt_bytes, 0);
    }

    #[test]
    fn flipped_byte_discards_the_suffix_but_not_the_prefix() {
        let tmp = TempDir::new("mds-store-flip").unwrap();
        let first_end;
        {
            let store = open(tmp.path(), 0);
            store.append("a@tiny", "alpha").unwrap();
            first_end = store.log_bytes();
            store.append("b@tiny", "beta").unwrap();
            store.append("c@tiny", "gamma").unwrap();
        }
        // Flip one byte inside the second record's value region.
        let log = tmp.path().join("log.mds");
        let mut bytes = std::fs::read(&log).unwrap();
        let victim = first_end as usize + RECORD_HEAD + 2;
        bytes[victim] ^= 0x40;
        std::fs::write(&log, &bytes).unwrap();

        let store = open(tmp.path(), 0);
        assert_eq!(store.get("a@tiny").as_deref(), Some("alpha"));
        assert!(
            store.get("b@tiny").is_none(),
            "corrupt record must not serve"
        );
        assert!(
            store.get("c@tiny").is_none(),
            "records after corruption are untrusted"
        );
        assert_eq!(store.recovery().log_records, 1);
        assert!(store.recovery().corrupt_bytes > 0);
    }

    #[test]
    fn garbage_file_resets_to_an_empty_store() {
        let tmp = TempDir::new("mds-store-garbage").unwrap();
        std::fs::write(tmp.path().join("log.mds"), b"not a store at all").unwrap();
        let store = open(tmp.path(), 0);
        assert!(store.is_empty());
        assert!(store.recovery().corrupt_bytes > 0);
        store.append("a@tiny", "ok").unwrap();
        let again = open(tmp.path(), 0);
        assert_eq!(again.get("a@tiny").as_deref(), Some("ok"));
    }

    #[test]
    fn compaction_shrinks_the_log_and_preserves_state() {
        let tmp = TempDir::new("mds-store-compact").unwrap();
        let store = open(tmp.path(), 3);
        for round in 0..10 {
            store.append("k@tiny", &format!("value {round}")).unwrap();
        }
        let before = store.log_bytes();
        store.compact().unwrap();
        assert!(store.log_bytes() < before);
        assert_eq!(store.log_bytes(), MAGIC.len() as u64);
        assert!(store.snapshot_bytes() > MAGIC.len() as u64);
        assert_eq!(store.get("k@tiny").as_deref(), Some("value 9"));

        let again = open(tmp.path(), 3);
        assert_eq!(again.recovery().snapshot_records, 1);
        assert_eq!(again.recovery().log_records, 0);
        assert_eq!(again.get("k@tiny").as_deref(), Some("value 9"));
    }

    #[test]
    fn automatic_compaction_fires_past_the_threshold() {
        let tmp = TempDir::new("mds-store-auto").unwrap();
        let store = Store::open(
            tmp.path(),
            StoreConfig {
                epoch: 0,
                compact_threshold_bytes: 256,
            },
        )
        .unwrap();
        for i in 0..50 {
            store
                .append(&format!("k{i}@tiny"), "0123456789abcdef")
                .unwrap();
        }
        // Appends only mark compaction as due; the drain point runs it.
        assert!(store.compaction_due());
        assert!(store.compact_if_due().unwrap());
        assert!(store.compactions() > 0);
        assert!(!store.compaction_due(), "compaction reset the log");
        assert!(!store.compact_if_due().unwrap(), "not due: a no-op");
        assert_eq!(store.len(), 50);
        let again = open(tmp.path(), 0);
        assert_eq!(again.len(), 50);
    }

    #[test]
    fn threshold_crossing_append_does_not_compact_inline() {
        let tmp = TempDir::new("mds-store-deferred").unwrap();
        let store = Store::open(
            tmp.path(),
            StoreConfig {
                epoch: 0,
                compact_threshold_bytes: 64,
            },
        )
        .unwrap();
        // Blow far past the threshold: every append must stay a pure
        // log write (no snapshot rewrite sneaking onto the append path).
        for i in 0..20 {
            store
                .append(&format!("k{i}@tiny"), "0123456789abcdef")
                .unwrap();
        }
        assert_eq!(store.compactions(), 0, "append never compacts inline");
        assert_eq!(store.snapshot_bytes(), 0, "no snapshot written yet");
        assert!(store.log_bytes() > 64, "the log is allowed to overshoot");
        assert!(store.compaction_due());
        // The maintenance sweep eventually drains the debt.
        assert!(store.compact_if_due().unwrap());
        assert_eq!(store.log_bytes(), MAGIC.len() as u64);
        assert_eq!(store.len(), 20);
        let again = open(tmp.path(), 0);
        assert_eq!(again.recovery().snapshot_records, 20);
    }

    #[test]
    fn compaction_never_due_when_disabled() {
        let tmp = TempDir::new("mds-store-disabled").unwrap();
        let store = open(tmp.path(), 0); // threshold 0: disabled
        for i in 0..50 {
            store
                .append(&format!("k{i}@tiny"), "0123456789abcdef")
                .unwrap();
        }
        assert!(!store.compaction_due());
        assert!(!store.compact_if_due().unwrap());
        assert_eq!(store.compactions(), 0);
    }

    #[test]
    fn invalid_keys_and_oversized_values_are_refused() {
        let tmp = TempDir::new("mds-store-invalid").unwrap();
        let store = open(tmp.path(), 0);
        assert!(store.append("", "v").is_err());
        assert!(store.append(&"k".repeat(MAX_KEY_BYTES + 1), "v").is_err());
        assert_eq!(store.append_errors(), 0, "validation is not an I/O error");
        assert!(store.is_empty());
    }
}
