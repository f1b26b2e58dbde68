//! `--workload all` runs each workload in a process of its own, so each
//! reports the `peak_rss_mb` of a run of that workload alone, not the
//! largest peak of the workloads before it.

use std::process::Command;

/// The result lines of one run of the benchmark binary, which must exit 0.
fn result_lines(workload: &str) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3"])
        .args(["--seconds", "0", "--trace", "0"])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .filter(|l| l.starts_with("{\"correct\": true"))
        .map(str::to_string)
        .collect()
}

fn peak_rss_mb(line: &str) -> f64 {
    let key = "\"peak_rss_mb\": {\"value\": ";
    let from = &line[line.find(key).expect("peak_rss_mb reported") + key.len()..];
    from[..from.find(',').expect("value ends")]
        .parse()
        .expect("a number")
}

/// `interactive_b1` peaks about 3% below `batch_pd`, which runs before it,
/// so one shared process would report `batch_pd`'s peak for both. The two
/// whole-load peaks move by under 1% from run to run; `paged_zipf`'s moves
/// by up to 12% (faults allocate on the worker threads), so it is only
/// checked to be reported.
#[test]
fn all_reports_each_workloads_own_peak_rss() {
    let names = ["batch_pd", "interactive_b1", "paged_zipf"];
    let all = result_lines("all");
    assert_eq!(all.len(), names.len(), "one correct result per workload");
    for (line, name) in all.iter().zip(names).take(2) {
        let alone = result_lines(name);
        assert_eq!(alone.len(), 1, "{name}");
        let (shared, own) = (peak_rss_mb(line), peak_rss_mb(&alone[0]));
        assert!(
            (shared - own).abs() <= 0.02 * own,
            "{name}: {shared} MiB under `all`, {own} MiB alone"
        );
    }
    assert!(peak_rss_mb(&all[2]) > 0.0);
}
