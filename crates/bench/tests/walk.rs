//! The fleet walk behind the `experiments` runner: one shared walk renders
//! each gateway at most twice for every experiment of the registry, writes
//! the same CSV bytes as the per-experiment entry points, and a bad id is
//! rejected before any work.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use wtts_bench::experiments::{self, aggregation, dominance, motifs, Experiment, EXPERIMENTS};
use wtts_gwsim::{Fleet, FleetConfig};

fn four_week_fleet() -> Fleet {
    Fleet::new(FleetConfig {
        n_gateways: 8,
        weeks: 4,
        ..FleetConfig::small()
    })
}

/// A fresh, empty scratch directory under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wtts-walk-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Every file of `dir` by name, with its bytes.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("read scratch dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let bytes = std::fs::read(e.path()).expect("read csv");
            (e.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect()
}

fn registry(ids: &[&str]) -> Vec<&'static Experiment> {
    let ids: Vec<String> = ids.iter().map(|s| s.to_string()).collect();
    experiments::resolve(&ids).expect("registered ids")
}

/// Plans `ids` on one walk, as the runner does, and runs every finish.
fn joint_run(fleet: &Fleet, ids: &[&str], out: &Path) {
    let (plan, finishes) = experiments::plan(fleet, &registry(ids));
    let mut results = plan.walk();
    for finish in finishes {
        finish(&mut results, Some(out));
    }
}

#[test]
fn one_walk_renders_each_gateway_at_most_twice() {
    let fleet = four_week_fleet();
    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| e.id != "robustness")
        .collect();
    let (plan, finishes) = experiments::plan(&fleet, &selected);
    let mut results = plan.walk();
    let walked = fleet.renders();
    for finish in finishes {
        finish(&mut results, None);
    }
    assert_eq!(fleet.renders(), walked, "a finish step rendered a gateway");
    assert!(
        fleet.renders() <= 2 * fleet.len(),
        "{} renders for {} gateways",
        fleet.renders(),
        fleet.len()
    );
    for id in 0..fleet.len() {
        assert!(
            fleet.renders_of(id) <= 2,
            "gateway {id} rendered {} times",
            fleet.renders_of(id)
        );
    }
}

#[test]
fn joint_walk_writes_the_standalone_bytes() {
    let fleet = four_week_fleet();
    type Standalone = fn(&Fleet, &Path);
    let groups: [(&[&str], Standalone); 3] = [
        (&["fig5", "ablation"], |fleet, out| {
            dominance::fig5(fleet, Some(out));
            dominance::ablation_similarity(fleet, Some(out));
            motifs::ablation_group_factor(&motifs::weekly_motifs(fleet), Some(out));
        }),
        (&["fig6", "fig7", "fig8"], |fleet, out| {
            aggregation::fig6(fleet, Some(out));
            let daily = aggregation::daily_analysis(fleet);
            aggregation::fig7(&daily, Some(out));
            aggregation::fig8(&daily, Some(out));
        }),
        (&["fig9-10", "fig12-13"], |fleet, out| {
            let weekly = motifs::weekly_motifs(fleet);
            let daily = motifs::daily_motifs(fleet);
            motifs::fig9_10(&weekly, "weekly", Some(out));
            motifs::fig9_10(&daily, "daily", Some(out));
            let selection = motifs::weekly_representatives(&weekly);
            motifs::motif_dominance(fleet, &weekly, &selection, "weekly", Some(out));
        }),
    ];
    for (k, (ids, standalone)) in groups.into_iter().enumerate() {
        let joint = scratch_dir(&format!("joint-{k}"));
        let alone = scratch_dir(&format!("alone-{k}"));
        joint_run(&fleet, ids, &joint);
        standalone(&fleet, &alone);
        let (joint_files, alone_files) = (files(&joint), files(&alone));
        assert!(!joint_files.is_empty(), "{ids:?} wrote no CSV");
        assert_eq!(
            joint_files.keys().collect::<Vec<_>>(),
            alone_files.keys().collect::<Vec<_>>(),
            "{ids:?}: different CSV files"
        );
        for (name, bytes) in &joint_files {
            assert!(alone_files[name] == *bytes, "{ids:?}: {name} differs");
        }
        let _ = std::fs::remove_dir_all(joint);
        let _ = std::fs::remove_dir_all(alone);
    }
}

/// `experiments fig1 nope` must reject `nope` before running `fig1`: no
/// table printed, no CSV directory created.
#[test]
fn runner_rejects_an_unknown_id_before_any_work() {
    let cwd = scratch_dir("runner");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--small", "fig1", "nope"])
        .current_dir(&cwd)
        .output()
        .expect("run the experiments binary");
    assert_eq!(output.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!stdout.contains("===="), "an experiment ran: {stdout}");
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("unknown experiment: nope"),
        "no error names the bad id"
    );
    assert!(!cwd.join("results").exists(), "CSV output was written");
    let _ = std::fs::remove_dir_all(cwd);
}
