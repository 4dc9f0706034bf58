//! Output byte checks.
//!
//! Every document a workload produces is compared with what the code at
//! the benchmark's defining commit produced:
//!
//! - tiny-scale paper documents against `ci/pinned/RESULTS_<id>.json`;
//! - fig5 at small scale against `ci/pinned/small/RESULTS_fig5.json`;
//! - every other small-scale document, and each seeded WDL document at
//!   both scales, against the length and FNV-1a digest recorded in
//!   `digests.txt`.
//!
//! FNV-1a steps are bijections of the 64-bit state, so any single-byte
//! change to a document of the recorded length changes its digest: a
//! flipped byte is always caught.

use mds_wdl::generate::fnv1a;
use std::collections::HashMap;
use std::path::Path;

/// The recorded digests, one `key length fnv1a-hex` line each.
const DIGESTS: &str = include_str!("../digests.txt");

/// What one document must look like.
#[derive(Debug, Clone)]
enum Expected {
    Bytes(Vec<u8>),
    Digest { len: usize, fnv: u64 },
}

impl Expected {
    fn len(&self) -> usize {
        match self {
            Expected::Bytes(b) => b.len(),
            Expected::Digest { len, .. } => *len,
        }
    }

    fn matches(&self, bytes: &[u8]) -> bool {
        match self {
            Expected::Bytes(b) => b == bytes,
            Expected::Digest { len, fnv } => bytes.len() == *len && fnv1a(bytes) == *fnv,
        }
    }
}

/// The table of expected documents, keyed `<scale>/<id>`.
#[derive(Debug, Clone, Default)]
pub struct Checker {
    expected: HashMap<String, Expected>,
}

impl Checker {
    /// Loads the pinned files under `root` and the recorded digests.
    pub fn load(root: &Path) -> Result<Checker, String> {
        let mut checker = Checker::default();
        let read = |rel: String| {
            std::fs::read(root.join(&rel)).map_err(|e| format!("cannot read {rel}: {e}"))
        };
        for id in mds_bench::PAPER_IDS {
            let bytes = read(format!("ci/pinned/RESULTS_{id}.json"))?;
            checker.insert_bytes(&format!("tiny/{id}"), bytes);
        }
        let bytes = read("ci/pinned/small/RESULTS_fig5.json".to_string())?;
        checker.insert_bytes("small/fig5", bytes);
        checker.add_digests(DIGESTS)?;
        Ok(checker)
    }

    /// Pins `key` to exact bytes.
    pub fn insert_bytes(&mut self, key: &str, bytes: Vec<u8>) {
        self.expected
            .insert(key.to_string(), Expected::Bytes(bytes));
    }

    /// Adds `key length hex` digest lines; exact pins already present win.
    pub fn add_digests(&mut self, text: &str) -> Result<(), String> {
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            let [key, len, hex] = parts[..] else {
                return Err(format!("malformed digest line {line:?}"));
            };
            let len = len
                .parse()
                .map_err(|_| format!("bad length in digest line {line:?}"))?;
            let fnv = u64::from_str_radix(hex, 16)
                .map_err(|_| format!("bad digest in digest line {line:?}"))?;
            self.expected
                .entry(key.to_string())
                .or_insert(Expected::Digest { len, fnv });
        }
        Ok(())
    }

    /// Whether `key` has an expectation at all.
    pub fn knows(&self, key: &str) -> bool {
        self.expected.contains_key(key)
    }

    /// Whether `bytes` is exactly the expected document for `key`. An
    /// unknown key never matches.
    pub fn check(&self, key: &str, bytes: &[u8]) -> bool {
        self.expected.get(key).is_some_and(|e| e.matches(bytes))
    }

    /// Whether `bytes` is the concatenation of the expected documents for
    /// `keys`, in order (a merged grid response).
    pub fn check_concat(&self, keys: &[String], bytes: &[u8]) -> bool {
        let mut rest = bytes;
        for key in keys {
            let Some(expected) = self.expected.get(key) else {
                return false;
            };
            if rest.len() < expected.len() {
                return false;
            }
            let (head, tail) = rest.split_at(expected.len());
            if !expected.matches(head) {
                return false;
            }
            rest = tail;
        }
        rest.is_empty()
    }
}

/// The digest line `check` accepts for `bytes` under `key`.
pub fn digest_line(key: &str, bytes: &[u8]) -> String {
    format!("{key} {} {:016x}", bytes.len(), fnv1a(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> &'static Path {
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
    }

    #[test]
    fn a_flipped_byte_fails_every_kind_of_check() {
        let checker = Checker::load(repo_root()).expect("pinned files and digests load");
        let pinned = std::fs::read(repo_root().join("ci/pinned/RESULTS_table6.json")).unwrap();
        assert!(checker.check("tiny/table6", &pinned));
        let mut flipped = pinned.clone();
        flipped[pinned.len() / 2] ^= 0x01;
        assert!(!checker.check("tiny/table6", &flipped));

        // The digest path: pin the same document by digest only.
        let mut by_digest = Checker::default();
        by_digest
            .add_digests(&digest_line("small/x", &pinned))
            .unwrap();
        assert!(by_digest.check("small/x", &pinned));
        for at in [0, pinned.len() / 3, pinned.len() - 1] {
            let mut flipped = pinned.clone();
            flipped[at] ^= 0x80;
            assert!(!by_digest.check("small/x", &flipped), "flip at {at}");
        }
        assert!(!by_digest.check("small/x", &pinned[1..]));
        assert!(!by_digest.check("small/unknown", &pinned));
    }

    #[test]
    fn concatenated_documents_check_in_order() {
        let mut checker = Checker::default();
        checker.insert_bytes("a", b"first\n".to_vec());
        checker.add_digests(&digest_line("b", b"second\n")).unwrap();
        let keys = |k: &[&str]| k.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(checker.check_concat(&keys(&["a", "b"]), b"first\nsecond\n"));
        assert!(checker.check_concat(&keys(&["b", "a"]), b"second\nfirst\n"));
        assert!(!checker.check_concat(&keys(&["a", "b"]), b"second\nfirst\n"));
        assert!(!checker.check_concat(&keys(&["a", "b"]), b"first\nsecond\n\n"));
        assert!(!checker.check_concat(&keys(&["a", "b"]), b"first\nsecoNd\n"));
    }

    #[test]
    fn every_checked_document_has_an_expectation() {
        let checker = Checker::load(repo_root()).unwrap();
        for id in mds_bench::PAPER_IDS {
            assert!(checker.knows(&format!("small/{id}")), "small/{id}");
            assert!(checker.knows(&format!("tiny/{id}")), "tiny/{id}");
        }
        for seed in 0..crate::paper::WDL_SEEDS {
            for scale in [mds_workloads::Scale::Tiny, mds_workloads::Scale::Small] {
                let key = crate::paper::wdl_key(scale, seed);
                assert!(checker.knows(&key), "{key}");
            }
        }
    }
}
