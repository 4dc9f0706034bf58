//! Exact-number coverage of adversarial traces: the planned replay
//! engine reproduces result digests recorded at fixed seeds.
//!
//! Each case is a randomized committed instruction stream from
//! `tests/adversarial/mod.rs`. For every case, stage count and
//! speculation policy, [`run_planned`]'s serialized result is hashed
//! with [`FxHasher`] and compared with the digest in [`DIGESTS`].
//!
//! The digests were first recorded while a second, independently written
//! replay engine (which re-walked the raw records with per-task hash maps)
//! still existed, and both engines produced byte-identical results on
//! every (case, stages, policy). They were re-recorded once since, when
//! the plan's producers became exact byte-range overlap for unaligned
//! words, after the oracle in `tests/oracle.rs` passed on all 16 cases.
//! A digest that moves means the engine's timing changed: check it
//! against the oracle and re-record the table only for an intended model
//! change.

mod adversarial;

use adversarial::case;
use mds_core::Policy;
use mds_harness::hash::FxHasher;
use mds_harness::json::ToJson;
use mds_multiscalar::{run_planned, MsConfig, MsResult};
use std::hash::Hasher;

/// Stage counts, each replayed under every policy in [`Policy::ALL`]
/// order: one digest per (stages, policy), 12 per case.
const STAGES: [usize; 2] = [4, 8];

/// The digest of one result: [`FxHasher`] over its serialized JSON.
fn digest(result: &MsResult) -> u64 {
    let mut h = FxHasher::default();
    h.write(result.to_json().to_string().as_bytes());
    h.finish()
}

/// Per seed `0..DIGESTS.len()`: the digests of the six policies at 4
/// stages, then at 8.
#[rustfmt::skip]
const DIGESTS: [[u64; 12]; 16] = [
    [0x5282d9e290a85f6d, 0x5282d9e290a85f6d, 0x5282d9e290a85f6d, 0x5282d9e290a85f6d, 0xca7acc43b752d67e, 0xca7acc43b752d67e,
     0x3fd81807a4f09444, 0x3fd81807a4f09444, 0x3fd81807a4f09444, 0x3fd81807a4f09444, 0xaff70be26372882c, 0xaff70be26372882c],
    [0x452c4b677b8a3550, 0x3f1e1454b16e13d9, 0x452c4b677b8a3550, 0x452c4b677b8a3550, 0x07a56631be17f941, 0x07a56631be17f941,
     0xd9aeafe6d9a8ca54, 0x7aec22568a3aae99, 0xd9aeafe6d9a8ca54, 0xd9aeafe6d9a8ca54, 0x1e89eb480ce4e94b, 0x81bf7ad64fc14a3b],
    [0x351a244a5ff881fa, 0xf7187cba99ccf435, 0x351a244a5ff881fa, 0x351a244a5ff881fa, 0x7b317ce27b947334, 0x8e5494ef71b174a8,
     0xd1079e08c506efa1, 0xe8f3c3664383e275, 0xd1079e08c506efa1, 0xd1079e08c506efa1, 0x1d5d621ed4e3358d, 0xf5209e8403853459],
    [0xf4e938a76ab30b82, 0xdc95ab312a78d401, 0xf4e938a76ab30b82, 0xf4e938a76ab30b82, 0x6db54e5df15ea84a, 0x9bda23995cea3de7,
     0x76854c1ef865781c, 0x1ed06e81e7624e3d, 0x76854c1ef865781c, 0x76854c1ef865781c, 0x7e8eb272d9b9055e, 0x952e510ece81fe77],
    [0x9faffc83abbeb889, 0xb91c7860771b3671, 0x9faffc83abbeb889, 0x9faffc83abbeb889, 0x8e3b6bc45ada79d6, 0x705c91f50ea3138a,
     0xd0f571121b01c3d2, 0x7f5556a83c97c60c, 0xd0f571121b01c3d2, 0xd0f571121b01c3d2, 0x0e3a1429b7f73257, 0x708bae83384479d5],
    [0x3798407783c49b91, 0x135f7e88f04ee2b5, 0x3798407783c49b91, 0x3798407783c49b91, 0x6a1018d24ee6a4f0, 0x6a1018d24ee6a4f0,
     0x8dc47b5880695ed5, 0x8dc47b5880695ed5, 0x8dc47b5880695ed5, 0x8dc47b5880695ed5, 0x4c5536c4f8f18087, 0x4c5536c4f8f18087],
    [0x171b1cc8abe9b116, 0x120a6a1ee5e0e9d4, 0x171b1cc8abe9b116, 0x171b1cc8abe9b116, 0xf06bdfe367cac70e, 0x5484c6fa40fc3008,
     0x76187d3c82bdc25e, 0x453fe73aa935420c, 0x76187d3c82bdc25e, 0x76187d3c82bdc25e, 0x710089e9214b4f54, 0x710089e9214b4f54],
    [0xf18c62e738664837, 0x17400e27699638f5, 0xf18c62e738664837, 0xf18c62e738664837, 0x455586e1ec16fb6c, 0xb000023556161d53,
     0xd76baebfd7cb3992, 0x0e19edb7d5e9af4d, 0xd76baebfd7cb3992, 0xd76baebfd7cb3992, 0xd7b778f12a5ded19, 0xd7b778f12a5ded19],
    [0xc0c710cc93f29d18, 0xec98e2950d630a5f, 0xc0c710cc93f29d18, 0xc0c710cc93f29d18, 0xdc8fc404fd33f17d, 0x2b2312900db3d979,
     0xbb298e706a3ae651, 0x68d687f5e028ed17, 0xbb298e706a3ae651, 0xbb298e706a3ae651, 0xe761f30cebee92bb, 0xcd591b5dfea63c89],
    [0x928a2338e0111f6b, 0x928a2338e0111f6b, 0x928a2338e0111f6b, 0x928a2338e0111f6b, 0x518280aa9c8789f9, 0x518280aa9c8789f9,
     0x928a2338e0111f6b, 0x928a2338e0111f6b, 0x928a2338e0111f6b, 0x928a2338e0111f6b, 0x518280aa9c8789f9, 0x518280aa9c8789f9],
    [0xc97330591804f52b, 0xd0bbfdc698fa3993, 0xc97330591804f52b, 0xc97330591804f52b, 0x84d626a74819947d, 0x84d626a74819947d,
     0x16d87006ee034170, 0x16d87006ee034170, 0x16d87006ee034170, 0x16d87006ee034170, 0xbc215cacb948ea15, 0xbc215cacb948ea15],
    [0x36cc2f6cdf9a6bec, 0x3e618d33052f2bff, 0x36cc2f6cdf9a6bec, 0x36cc2f6cdf9a6bec, 0xf4c590a45a721831, 0x81455a1d9cfcc3aa,
     0x048efbdc6801c953, 0x0476a9829b918948, 0x048efbdc6801c953, 0x048efbdc6801c953, 0x4d773b060cea6931, 0x95345fd71b81f464],
    [0xad765493d0bd27df, 0xbfc573678e18f232, 0xad765493d0bd27df, 0xad765493d0bd27df, 0xc0322f4b1f6f1040, 0x24e1a3bcdf0c7a22,
     0x66117b1fedcf09bd, 0x784b279ff51aec01, 0x66117b1fedcf09bd, 0x66117b1fedcf09bd, 0x0ee66a7897004e59, 0xf7b9eb5dde52c838],
    [0x19b0b8c72d450a06, 0x09b74c36802404b6, 0x19b0b8c72d450a06, 0x19b0b8c72d450a06, 0x8ffd7e837255f819, 0x3de2b34628d4a0df,
     0xe2749e3152432595, 0x25a205d895e1799e, 0xe2749e3152432595, 0xe2749e3152432595, 0x90749e37f8299b2c, 0x1aaa1b0ef75b0bdc],
    [0x54207092cb864a73, 0x54207092cb864a73, 0x54207092cb864a73, 0x54207092cb864a73, 0x76f1197f21e0a122, 0x76f1197f21e0a122,
     0x52a5e5511ccbe5dc, 0x52a5e5511ccbe5dc, 0x52a5e5511ccbe5dc, 0x52a5e5511ccbe5dc, 0xa2815af9a4dc5c30, 0xa2815af9a4dc5c30],
    [0xa113391d7fb363ae, 0xc4a92dbd867cdb39, 0xa113391d7fb363ae, 0xa113391d7fb363ae, 0x7d2587607bc21333, 0xa556d6ccd3825791,
     0xecd7577b8809394a, 0x97b54853fb563817, 0xecd7577b8809394a, 0xecd7577b8809394a, 0x0ed9c2b6a5a6f04b, 0x861924dc6c6aad0a],
];

#[test]
fn planned_replay_matches_recorded_digests() {
    for (seed, want) in DIGESTS.iter().enumerate() {
        let trace = case(seed as u64);
        let mut got = Vec::with_capacity(12);
        for stages in STAGES {
            for policy in Policy::ALL {
                got.push(digest(&run_planned(
                    &trace,
                    &MsConfig::paper(stages, policy),
                )));
            }
        }
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g,
                w,
                "seed {seed}, {} stages, {}: digest {g:#018x}, recorded {w:#018x}",
                STAGES[i / 6],
                Policy::ALL[i % 6]
            );
        }
    }
}
