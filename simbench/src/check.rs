//! Output checks: stats fingerprints, the committed expected files, and
//! the seed derivation every workload uses.

use rfnoc::{Experiment, RunReport, WorkloadSpec};
use rfnoc_sim::RunStats;
use rfnoc_topology::Shortcut;
use std::collections::BTreeMap;

/// The seed at which every op must reproduce the committed expected
/// fingerprints. At this seed every traffic source keeps the seed the
/// repository's own plans give it.
pub const DEFAULT_SEED: u64 = 0;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a traffic seed from a source's own `base` seed and the
/// benchmark seed; the identity at [`DEFAULT_SEED`].
pub fn reseed(base: u64, seed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        base
    } else {
        splitmix(base ^ splitmix(seed))
    }
}

/// Re-seeds every traffic source of `exp`: the generator seed (which
/// also drives application and multicast streams) and a campaign
/// profile's own seed. Fault seeds are left alone.
pub fn reseed_experiment(exp: &mut Experiment, seed: u64) {
    exp.traffic.seed = reseed(exp.traffic.seed, seed);
    if let WorkloadSpec::Profile(spec) = &mut exp.workload {
        spec.seed = reseed(spec.seed, seed);
    }
}

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes in bytes.
    fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes in an integer.
    fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The hash.
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of one op's outputs: completed and injected messages,
/// latency sum, flit grants, end cycle, saturation and watchdog state,
/// power and area (to nine significant digits), and the selected
/// shortcuts when the op exposes them.
pub fn fingerprint(
    stats: &RunStats,
    power_w: f64,
    area_mm2: f64,
    shortcuts: Option<&[Shortcut]>,
) -> u64 {
    let mut h = Fnv::default();
    h.u64(stats.completed_messages)
        .u64(stats.injected_messages)
        .u64(stats.message_latency_sum)
        .u64(stats.port_flits.iter().sum())
        .u64(stats.end_cycle)
        .u64(u64::from(stats.saturated))
        .bytes(
            stats
                .health
                .map(|h| h.diagnosis.to_string())
                .unwrap_or_default()
                .as_bytes(),
        )
        .bytes(format!("{power_w:.9e}/{area_mm2:.9e}").as_bytes());
    for s in shortcuts.unwrap_or_default() {
        h.u64(s.src as u64).u64(s.dst as u64);
    }
    h.finish()
}

/// [`fingerprint`] of an experiment report.
pub fn report_fingerprint(report: &RunReport, shortcuts: Option<&[Shortcut]>) -> u64 {
    fingerprint(
        &report.stats,
        report.total_power_w(),
        report.total_area_mm2(),
        shortcuts,
    )
}

/// Consistency checks that hold for every op on every seed: the
/// counters agree with each other. Returns the first violation.
pub fn stats_sane(stats: &RunStats) -> Result<(), String> {
    if stats.completed_messages > stats.injected_messages {
        return Err(format!(
            "completed {} > injected {}",
            stats.completed_messages, stats.injected_messages
        ));
    }
    if stats.message_latencies.len() as u64 != stats.completed_messages {
        return Err("latency samples disagree with completions".into());
    }
    if stats.end_cycle == 0 {
        return Err("simulated no cycles".into());
    }
    Ok(())
}

/// Parses an expected-fingerprint file: `<op id>\t<16 hex digits>` per
/// line; `#` starts a comment.
pub fn parse_expected(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (id, hex) = l.rsplit_once('\t')?;
            Some((id.to_string(), u64::from_str_radix(hex.trim(), 16).ok()?))
        })
        .collect()
}

/// Renders fingerprints in the [`parse_expected`] format.
pub fn render_expected(workload: &str, entries: &[(String, u64)]) -> String {
    let mut out = format!(
        "# Expected op fingerprints of the {workload} workload at seed {DEFAULT_SEED}.\n\
         # Regenerate with: cargo run --release --manifest-path simbench/Cargo.toml -- \
         --workload {workload} --seed {DEFAULT_SEED} --bless\n"
    );
    for (id, fp) in entries {
        out.push_str(&format!("{id}\t{fp:016x}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reseed_is_identity_at_default_and_mixes_otherwise() {
        assert_eq!(reseed(0xC0FFEE, DEFAULT_SEED), 0xC0FFEE);
        assert_ne!(reseed(0xC0FFEE, 1), reseed(0xC0FFEE, 2));
        assert_eq!(reseed(7, 3), reseed(7, 3));
    }

    #[test]
    fn expected_files_round_trip() {
        let entries = vec![("fig7/a b".to_string(), 0xdead_beef_u64), ("x".into(), 1)];
        let parsed = parse_expected(&render_expected("w", &entries));
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["fig7/a b"], 0xdead_beef);
    }
}
