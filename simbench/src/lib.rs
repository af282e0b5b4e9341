//! Host-time benchmark of the rfnoc simulator.
//!
//! Three closed-loop workloads (`paper_sweep`, `saturated_mesh64`,
//! `design_space`) report end-to-end metrics with tracing off; a traced
//! run times every layer's public calls from outside and reports the
//! per-layer split. See `README.md` in this directory for the metric
//! catalogue and how to run it.

#![forbid(unsafe_code)]

pub mod chain;
pub mod check;
pub mod host;
pub mod layers;
pub mod workloads;

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((quantile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }
}
