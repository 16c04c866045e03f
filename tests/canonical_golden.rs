//! Canonical-report goldens: the full pipeline's `canonical_json()` for
//! three designs, pinned byte for byte. A solver or engine change that
//! claims "same results, less work" must leave these files untouched.
//!
//! - ClusterSoC #1 at the batch defaults;
//! - AutoSoC #2 under the Refined analysis, which adds the clock-high
//!   sweep (`sweep_high`);
//! - the generated design `gen:1:3` at the batch defaults.
//!
//! Snapshots live in `tests/golden/`. To update them after an
//! intentional report change:
//!
//! ```sh
//! SOCCAR_BLESS=1 cargo test --test canonical_golden
//! ```

use std::path::PathBuf;

use soccar::evaluation::{evaluate_generated, evaluate_variant};
use soccar::SoccarConfig;
use soccar_cfg::GovernorAnalysis;
use soccar_soc::{GenSpec, SocModel};

/// Compares `actual` against `tests/golden/<name>`, or rewrites the
/// snapshot when `SOCCAR_BLESS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("SOCCAR_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing snapshot {}; run with SOCCAR_BLESS=1 to create it",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "canonical report differs from {}; rerun with SOCCAR_BLESS=1 to update",
        path.display()
    );
}

fn variant_json(model: SocModel, number: u32, config: SoccarConfig) -> String {
    let spec = soccar_soc::variant(model, number).expect("bundled variant exists");
    let eval = evaluate_variant(&spec, config).expect("benchmark variants always evaluate");
    eval.report
        .canonical_json()
        .expect("canonical report serializes")
}

#[test]
fn cluster_soc_1_defaults_match_golden() {
    let json = variant_json(SocModel::ClusterSoc, 1, SoccarConfig::default());
    check_golden("cluster_soc_1.json", &json);
}

#[test]
fn auto_soc_2_refined_matches_golden() {
    let config = SoccarConfig {
        analysis: GovernorAnalysis::Refined,
        ..SoccarConfig::default()
    };
    let json = variant_json(SocModel::AutoSoc, 2, config);
    // The clock-high sweep ran and caught the SHA256 bug.
    assert!(json.contains("sha256-no-leak"));
    check_golden("auto_soc_2_refined.json", &json);
}

#[test]
fn generated_1_3_defaults_match_golden() {
    let spec = GenSpec { seed: 1, scale: 3 };
    let eval =
        evaluate_generated(&spec, SoccarConfig::default()).expect("generated designs evaluate");
    let json = eval
        .report
        .canonical_json()
        .expect("canonical report serializes");
    check_golden("gen_1_3.json", &json);
}
