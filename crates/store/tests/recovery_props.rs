//! Crash-recovery property tests against an in-memory reference model.
//!
//! The store's recovery contract is deterministic: after any torn tail,
//! in-place corruption, or epoch change, the recovered state equals the
//! fold of the longest valid record prefix (current-epoch records only,
//! last write wins). That makes the reference model trivial — replay the
//! same appends into a `HashMap`, cutting at the same boundary — and lets
//! the properties drive arbitrary damage into real files.

use mds_harness::prelude::*;
use mds_harness::tempdir::TempDir;
use mds_store::{Store, StoreConfig};
use std::collections::HashMap;

/// Opens a store with automatic compaction disabled so record boundaries
/// stay where the appends put them.
fn open(dir: &std::path::Path, epoch: u64) -> Store {
    Store::open(
        dir,
        StoreConfig {
            epoch,
            compact_threshold_bytes: 0,
        },
    )
    .expect("open store")
}

/// One generated append: a key drawn from a small pool (so last-wins
/// collisions actually happen) and a short arbitrary-ish value.
fn arb_append() -> impl Strategy<Value = (String, String)> {
    (0u8..6, vec_of(97u8..123, 0..16)).prop_map(|(k, bytes)| {
        let value = String::from_utf8(bytes).expect("ascii");
        (format!("k{k}@tiny"), value)
    })
}

/// Replays `appends` into the store, returning each record's end offset
/// in `log.mds` so properties can map a byte offset to a record index.
fn fill(store: &Store, appends: &[(String, String)]) -> Vec<u64> {
    appends
        .iter()
        .map(|(k, v)| {
            store.append(k, v).expect("append");
            store.log_bytes()
        })
        .collect()
}

/// The reference model: fold of the first `n` appends, last write wins.
fn model_of(appends: &[(String, String)], n: usize) -> HashMap<String, String> {
    let mut model = HashMap::new();
    for (k, v) in &appends[..n] {
        model.insert(k.clone(), v.clone());
    }
    model
}

/// Asserts the recovered store equals the model exactly (both directions,
/// via the sorted iterator).
fn assert_matches(store: &Store, model: &HashMap<String, String>) {
    let mut expected: Vec<(&String, &String)> = model.iter().collect();
    expected.sort();
    let recovered: Vec<(String, String)> = store.iter().map(|(k, v)| (k, v.to_string())).collect();
    let expected: Vec<(String, String)> = expected
        .into_iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    assert_eq!(recovered, expected);
}

/// Bytes one record of `key` → `value` occupies in the log: checksum,
/// epoch, and two length fields (24 bytes, per the format in the crate
/// docs), then the key and value.
fn record_len(key: &str, value: &str) -> u64 {
    (24 + key.len() + value.len()) as u64
}

properties! {
    #[test]
    fn torn_tail_recovers_the_longest_valid_prefix(
        appends in vec_of(arb_append(), 1..24),
        cut in 0u32..4096,
    ) {
        let tmp = TempDir::new("mds-store-prop-torn").unwrap();
        let ends = {
            let store = open(tmp.path(), 1);
            fill(&store, &appends)
        };
        let log = tmp.join("log.mds");
        let len = std::fs::read(&log).unwrap().len() as u64;
        let cut = u64::from(cut) % (len + 1);
        let f = std::fs::OpenOptions::new().write(true).open(&log).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        // Every record wholly inside the first `cut` bytes survives; the
        // rest is a torn tail.
        let survivors = ends.iter().filter(|&&end| end <= cut).count();
        let store = open(tmp.path(), 1);
        assert_matches(&store, &model_of(&appends, survivors));
        prop_assert_eq!(
            store.recovery().log_records as usize, survivors,
            "applied record count"
        );

        // The store must keep working after the truncation.
        store.append("fresh@tiny", "post-crash").unwrap();
        let again = open(tmp.path(), 1);
        prop_assert_eq!(again.get("fresh@tiny").as_deref(), Some("post-crash"));
        prop_assert_eq!(again.recovery().corrupt_bytes, 0, "reopen is clean");
    }

    #[test]
    fn torn_batch_recovers_the_longest_valid_record_prefix(
        batches in vec_of(vec_of(arb_append(), 1..8), 1..6),
        cut in 0u32..4096,
    ) {
        let tmp = TempDir::new("mds-store-prop-batch").unwrap();
        // Each batch is one write + one fsync; record boundaries inside
        // it follow from the record format.
        let mut ends = Vec::new();
        {
            let store = open(tmp.path(), 1);
            let mut end = store.log_bytes();
            for batch in &batches {
                store.append_all(batch).expect("append batch");
                for (k, v) in batch {
                    end += record_len(k, v);
                    ends.push(end);
                }
                prop_assert_eq!(store.log_bytes(), end, "one record per entry");
            }
            let total: usize = batches.iter().map(Vec::len).sum();
            prop_assert_eq!(store.appends() as usize, total);
        }
        let appends: Vec<(String, String)> = batches.concat();
        let log = tmp.join("log.mds");
        let len = std::fs::read(&log).unwrap().len() as u64;
        let cut = u64::from(cut) % (len + 1);
        let f = std::fs::OpenOptions::new().write(true).open(&log).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        // A cut inside a batch keeps that batch's whole records before
        // it: the longest valid prefix, not all-or-nothing per batch.
        let survivors = ends.iter().filter(|&&end| end <= cut).count();
        let store = open(tmp.path(), 1);
        assert_matches(&store, &model_of(&appends, survivors));
        prop_assert_eq!(store.recovery().log_records as usize, survivors);

        store
            .append_all(&[("fresh@tiny", "post-crash"), ("k0@tiny", "again")])
            .unwrap();
        let again = open(tmp.path(), 1);
        prop_assert_eq!(again.get("fresh@tiny").as_deref(), Some("post-crash"));
        prop_assert_eq!(again.get("k0@tiny").as_deref(), Some("again"));
        prop_assert_eq!(again.recovery().corrupt_bytes, 0, "reopen is clean");
    }

    #[test]
    fn flipped_byte_discards_from_the_damaged_record_on(
        appends in vec_of(arb_append(), 1..24),
        victim in 0u32..4096,
        bit in 0u8..8,
    ) {
        let tmp = TempDir::new("mds-store-prop-flip").unwrap();
        let ends = {
            let store = open(tmp.path(), 1);
            fill(&store, &appends)
        };
        let log = tmp.join("log.mds");
        let mut bytes = std::fs::read(&log).unwrap();
        let victim = victim as usize % bytes.len();
        bytes[victim] ^= 1 << bit;
        std::fs::write(&log, &bytes).unwrap();

        // Records strictly before the one containing the flipped byte
        // survive; the damaged record and everything after it (now
        // unverifiable) are dropped. A flip inside the 8-byte file
        // header voids the whole file.
        let survivors = ends.iter().filter(|&&end| end <= victim as u64).count();
        let store = open(tmp.path(), 1);
        assert_matches(&store, &model_of(&appends, survivors));
        prop_assert!(store.recovery().corrupt_bytes > 0, "damage was counted");

        store.append("fresh@tiny", "post-corruption").unwrap();
        let again = open(tmp.path(), 1);
        prop_assert_eq!(again.get("fresh@tiny").as_deref(), Some("post-corruption"));
    }

    #[test]
    fn stale_epochs_are_skipped_not_served(
        sessions in vec_of((1u64..3, vec_of(arb_append(), 0..8)), 1..6),
    ) {
        let tmp = TempDir::new("mds-store-prop-epoch").unwrap();
        // Interleave appends written under epoch 1 and epoch 2 by
        // reopening the same directory with a different configured epoch.
        for (epoch, appends) in &sessions {
            let store = open(tmp.path(), *epoch);
            fill(&store, appends);
        }
        for check_epoch in 1u64..3 {
            let matching: Vec<(String, String)> = sessions
                .iter()
                .filter(|(e, _)| *e == check_epoch)
                .flat_map(|(_, a)| a.iter().cloned())
                .collect();
            let stale: usize = sessions
                .iter()
                .filter(|(e, _)| *e != check_epoch)
                .map(|(_, a)| a.len())
                .sum();
            let store = open(tmp.path(), check_epoch);
            assert_matches(&store, &model_of(&matching, matching.len()));
            prop_assert_eq!(store.recovery().stale_skipped as usize, stale);
            prop_assert_eq!(store.recovery().corrupt_bytes, 0, "stale is not corrupt");
        }
    }

    #[test]
    fn compaction_and_reopen_preserve_state_exactly(
        appends in vec_of(arb_append(), 0..24),
        compact in any::<bool>(),
    ) {
        let tmp = TempDir::new("mds-store-prop-compact").unwrap();
        let model = model_of(&appends, appends.len());
        {
            let store = open(tmp.path(), 1);
            fill(&store, &appends);
            if compact {
                store.compact().unwrap();
                prop_assert_eq!(store.log_bytes(), mds_store::MAGIC.len() as u64);
            }
            assert_matches(&store, &model);
        }
        let once = open(tmp.path(), 1);
        assert_matches(&once, &model);
        drop(once);
        let twice = open(tmp.path(), 1);
        assert_matches(&twice, &model);
        prop_assert_eq!(twice.recovery().corrupt_bytes, 0);
    }
}
