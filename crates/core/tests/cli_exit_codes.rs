//! The exit-code contracts CI leans on, driven through the built
//! `rfnoc-cli` binary: `gate` exits 2 on a collapsed throughput, and
//! `validate` exits 0 / 2 / 1 for valid / failed-check / unreadable
//! artifacts. Also validates the committed artifacts under
//! `results/json/`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn cli(args: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_rfnoc-cli"))
        .args(args)
        .output();
    out.expect("run rfnoc-cli")
        .status
        .code()
        .expect("exit code")
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rfnoc_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn write(dir: &Path, file: &str, text: &str) -> String {
    let path = dir.join(file);
    std::fs::write(&path, text).expect("write");
    path.to_str().expect("utf-8 path").to_string()
}

/// A two-config throughput artifact with every rate scaled by `scale`.
fn throughput(git: &str, scale: f64) -> String {
    let row = |id: &str, cps: f64| {
        format!(
            "{{\"id\": \"{id}\", \"cycles\": 4500, \"wall_ms\": {:.4}, \"cycles_per_sec\": {:.4}, \
             \"flit_grants_per_sec\": {:.4}}}",
            4500.0 / (cps * scale) * 1e3,
            cps * scale,
            cps * scale / 3.0
        )
    };
    format!(
        "{{\"name\": \"BENCH_sim_throughput\", \"git\": \"{git}\", \"generated_unix\": 1, \
         \"quick\": true, \"configs\": [{}, {}]}}",
        row("low", 190_000.0),
        row("saturated", 5_800.0)
    )
}

/// Every `"cycles_per_sec": <n>` value cut to a tenth — 90% down, far
/// past any plausible noise band — leaving the other metrics alone.
fn collapse_throughput(text: &str) -> String {
    const KEY: &str = "\"cycles_per_sec\": ";
    let mut parts = text.split(KEY);
    let mut out = parts.next().unwrap_or_default().to_string();
    for part in parts {
        let end = part
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(part.len());
        let value: f64 = part[..end].parse().expect("a number follows the key");
        out.push_str(&format!("{KEY}{:.4}{}", value * 0.1, &part[end..]));
    }
    out
}

#[test]
fn gate_exits_2_on_a_collapsed_throughput() {
    let dir = scratch("gate");
    let history = dir.join("history");
    let history = history.to_str().unwrap();
    let run1 = write(&dir, "run1.json", &throughput("g1", 1.0));
    let run2 = write(&dir, "run2.json", &throughput("g2", 1.01));
    let collapsed = collapse_throughput(&throughput("g2", 1.01));
    assert_ne!(collapsed, throughput("g2", 1.01));
    let degraded = write(&dir, "degraded.json", &collapsed);
    assert_eq!(cli(&["ingest", "--history", history, &run1]), 0);
    let gate = |file: &str| {
        cli(&[
            "gate",
            file,
            "--history",
            history,
            "--min-history",
            "1",
            "--floor",
            "0.75",
        ])
    };
    assert_eq!(gate(&run2), 0, "a same-seed rerun passes");
    assert_eq!(gate(&degraded), 2, "a significant regression exits 2");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn validate_exit_codes() {
    let dir = scratch("validate");
    let plan = |p95: f64| {
        format!(
            "{{\"name\": \"fig7\", \"points\": [{{\"id\": \"a\", \"avg_latency_cycles\": 20.0, \
             \"p50_latency_cycles\": 18.0, \"p95_latency_cycles\": {p95}, \
             \"p99_latency_cycles\": 40.0}}]}}"
        )
    };
    let ok = write(&dir, "fig7.json", &plan(30.0));
    let broken = write(&dir, "fig7_broken.json", &plan(50.0));
    let unknown = write(&dir, "mystery.json", "{\"name\": \"mystery\"}");
    let garbled = write(&dir, "garbled.json", "{\"name\": ");
    assert_eq!(cli(&["validate", &ok]), 0);
    assert_eq!(
        cli(&["validate", &ok, &broken]),
        2,
        "a failed check exits 2"
    );
    assert_eq!(
        cli(&["validate", &ok, &unknown]),
        1,
        "an unknown artifact is an error"
    );
    assert_eq!(cli(&["validate", &garbled]), 1, "unparseable");
    assert_eq!(
        cli(&["validate", &dir.join("absent.json").to_string_lossy()]),
        1,
        "unreadable"
    );
    assert_eq!(cli(&["validate"]), 1, "usage");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed artifacts hold every rule: reconciled attribution,
/// RF shortcuts reducing contention at saturation, well-formed
/// trajectory rows.
#[test]
fn committed_artifacts_validate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/json");
    let artifacts: Vec<rfnoc::validate::Artifact> =
        ["PROFILE_congestion", "PROFILE_lowload", "BENCH_trajectory"]
            .iter()
            .map(|name| {
                let path = root.join(format!("{name}.json"));
                let read = rfnoc::validate::Artifact::read(path.to_str().unwrap());
                read.unwrap_or_else(|e| panic!("{e}"))
            })
            .collect();
    let report = rfnoc::validate::check(&artifacts);
    assert!(report.problems.is_empty(), "{:#?}", report.problems);
}
