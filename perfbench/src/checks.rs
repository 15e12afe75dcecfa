//! Output checks and failure accounting.
//!
//! Every timed operation — an ordering build, a kernel run, a served
//! request — is one attempt. It fails when any check on its output
//! fails: a permutation that is not a bijection or whose digest differs
//! from the one pinned for its dataset, a kernel checksum that differs
//! from the Original-label checksum, a reply that is not `ok` at tier
//! `cache` or `full`, a request still `busy` after retries, or a
//! transport error.

/// Attempted and failed operations, with the first failure messages.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

/// How many failure messages are kept for the error report.
const KEPT_MESSAGES: usize = 20;

impl Checks {
    /// Records one operation: `Ok` passed, `Err` names what failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.messages.len() < KEPT_MESSAGES {
                self.messages.push(msg);
            }
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The first failure messages.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// FNV-1a over the permutation's little-endian words — the digest the
/// repo's golden permutation tests and the serve trace use.
pub fn perm_digest(map: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in map {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digests of the seed-independent orderings on the benchmark's
/// datasets: `(dataset, scale, ordering, digest)`. The program must keep
/// producing these permutations byte for byte; a change that alters one
/// on purpose must re-pin it here and say so.
const PINNED_DIGESTS: &[(&str, f64, &str, u64)] = &[
    ("twitter", 0.1, "Gorder", 0x1d870aee68286999),
    ("twitter", 0.1, "RCM", 0x02030d609574ff2d),
    ("twitter", 0.1, "DBG", 0xfce2e53d7d2793d1),
    ("sdarc", 1.0, "Gorder", 0x6a5915e78f234d81),
    ("sdarc", 1.0, "RCM", 0xcd07347418fef115),
    ("flickr", 1.0, "Gorder", 0xcfe845ca807e0d09),
    ("flickr", 1.0, "RCM", 0x59ffa2d9c69e8ffd),
    ("flickr", 1.0, "DBG", 0xa800c213e2bbc149),
    ("wiki", 1.0, "Gorder", 0xb553a6034a09c1c1),
    ("wiki", 1.0, "RCM", 0xd85526270a40a699),
    ("wiki", 1.0, "DBG", 0xae1634007e501dfd),
];

/// The pinned digest of `ordering` on `dataset` at `scale`.
pub fn pinned_digest(dataset: &str, scale: f64, ordering: &str) -> Option<u64> {
    PINNED_DIGESTS
        .iter()
        .find(|&&(d, s, o, _)| d == dataset && s == scale && o == ordering)
        .map(|&(_, _, _, h)| h)
}

/// Checks that `map` (old id → new id) is a bijection on `0..n`.
pub fn check_bijection(map: &[u32], n: u32) -> Result<(), String> {
    if map.len() != n as usize {
        return Err(format!(
            "permutation has {} entries for {n} nodes",
            map.len()
        ));
    }
    let mut seen = vec![false; map.len()];
    for (old, &new) in map.iter().enumerate() {
        match seen.get_mut(new as usize) {
            Some(s) if !*s => *s = true,
            Some(_) => return Err(format!("node {old} maps to {new}, which is taken")),
            None => return Err(format!("node {old} maps to {new}, out of range")),
        }
    }
    Ok(())
}

/// Checks a built permutation: bijection, then the pinned digest.
pub fn check_permutation(
    map: &[u32],
    n: u32,
    dataset: &str,
    scale: f64,
    ordering: &str,
) -> Result<(), String> {
    check_bijection(map, n).map_err(|e| format!("{ordering} on {dataset}: {e}"))?;
    let want = pinned_digest(dataset, scale, ordering)
        .ok_or_else(|| format!("no pinned digest for {ordering} on {dataset} at scale {scale}"))?;
    let got = perm_digest(map);
    if got != want {
        return Err(format!(
            "{ordering} on {dataset}: digest {got:#018x}, pinned {want:#018x}"
        ));
    }
    Ok(())
}

/// Checks a kernel checksum against the Original-label checksum.
pub fn check_checksum(kernel: &str, label: &str, got: u64, original: u64) -> Result<(), String> {
    if got == original {
        Ok(())
    } else {
        Err(format!(
            "{kernel} on {label} labels: checksum {got:#x}, Original gives {original:#x}"
        ))
    }
}

/// Checks a work reply: status `ok` at tier `cache` or `full`.
pub fn check_reply(r: &gorder_serve::Response) -> Result<(), String> {
    if r.status != "ok" {
        return Err(format!("{} reply {}: {}", r.op, r.status, r.report));
    }
    match r.tier.as_deref() {
        Some("cache" | "full") => Ok(()),
        other => Err(format!("{} reply served at tier {other:?}", r.op)),
    }
}

/// The kernel checksum a `run` reply reports (`... checksum 0x1f ...`).
pub fn reply_checksum(report: &str) -> Option<u64> {
    let hex = report.split("checksum 0x").nth(1)?;
    let end = hex
        .find(|c: char| !c.is_ascii_hexdigit())
        .unwrap_or(hex.len());
    u64::from_str_radix(&hex[..end], 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gorder_serve::parse_response;

    #[test]
    fn wrong_permutation_is_counted() {
        let mut c = Checks::default();
        c.record(check_bijection(&[1, 0, 2], 3));
        c.record(check_bijection(&[1, 1, 2], 3));
        c.record(check_bijection(&[0, 1, 7], 3));
        c.record(check_bijection(&[0, 1], 3));
        assert_eq!((c.attempted(), c.failed()), (4, 3));
        assert!(c.messages()[0].contains("taken"));
    }

    #[test]
    fn digest_mismatch_is_counted() {
        let mut c = Checks::default();
        let identity: Vec<u32> = (0..5).collect();
        c.record(check_permutation(&identity, 5, "twitter", 0.1, "Gorder"));
        c.record(check_permutation(&identity, 5, "nowhere", 1.0, "Gorder"));
        assert_eq!((c.attempted(), c.failed()), (2, 2));
        assert!(c.messages()[0].contains("pinned"));
    }

    #[test]
    fn wrong_checksum_is_counted() {
        let mut c = Checks::default();
        c.record(check_checksum("BFS", "Gorder", 7, 7));
        c.record(check_checksum("BFS", "RCM", 8, 7));
        assert_eq!((c.attempted(), c.failed()), (2, 1));
        assert!((c.failed_frac() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn non_ok_reply_is_counted() {
        let mut c = Checks::default();
        let replies = [
            r#"{"status":"ok","op":"run","tier":"cache","degraded_serial":false,"report":"x","seconds":0.1}"#,
            r#"{"status":"ok","op":"run","tier":"degraded","degraded_serial":false,"report":"x","seconds":0.1}"#,
            r#"{"status":"ok","op":"order","tier":"original","degraded_serial":false,"report":"x","seconds":0.1}"#,
            r#"{"status":"busy","op":"run","retry_after_ms":50}"#,
            r#"{"status":"error","op":"run","error":"boom"}"#,
        ];
        for line in replies {
            c.record(check_reply(&parse_response(line).expect("parses")));
        }
        assert_eq!((c.attempted(), c.failed()), (5, 4));
    }

    #[test]
    fn reply_checksum_is_parsed() {
        let r = "BFS over Gorder order: checksum 0x127e8f in 0.017s";
        assert_eq!(reply_checksum(r), Some(0x127e8f));
        assert_eq!(reply_checksum("no checksum here"), None);
    }

    #[test]
    fn digest_matches_fnv1a() {
        assert_eq!(perm_digest(&[]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(perm_digest(&[0, 1]), perm_digest(&[1, 0]));
    }
}
