//! End-to-end experiment driver tests (reduced scale for CI speed).

use rescue_core::experiments::{self, class_counts_of, Fig8Params, Fig9Params};
use rescue_core::render;
use rescue_model::{ModelParams, Variant};
use rescue_pipesim::CoreConfig;
use rescue_yield::{Scenario, TechNode};

#[test]
fn table1_renders() {
    let rows = experiments::table1();
    assert!(rows.len() >= 8);
    let text = render::table1_text(&rows);
    assert!(text.contains("issue width"));
    assert!(text.contains("250 cycles"));
}

#[test]
fn table2_matches_paper_shape() {
    let (base_total, rescue) = experiments::table2();
    assert!((base_total - 96.0).abs() < 0.2);
    assert!(rescue.total_mm2 > base_total);
    let text = render::table2_text(base_total, &rescue);
    assert!(text.contains("chipkill"));
}

#[test]
fn table3_tiny_shape() {
    let t = experiments::table3(&ModelParams::tiny());
    // Structural relations from the paper: Rescue has more cells, one
    // chain each, non-trivial vectors and cycles.
    assert!(t.rescue.cells > t.baseline.cells);
    assert_eq!(t.baseline.chains, 1);
    assert_eq!(t.rescue.chains, 1);
    assert!(t.baseline.vectors > 0 && t.rescue.vectors > 0);
    assert!(t.rescue.cycles > t.rescue.vectors as u64);
    let text = render::table3_text(&t);
    assert!(text.contains("vectors"));
}

#[test]
fn isolation_tiny_rescue_is_unambiguous() {
    let e = experiments::isolation(&ModelParams::tiny(), Variant::Rescue, 25, 3);
    assert_eq!(e.total_injected(), e.total_isolated(), "{:#?}", e);
    for st in &e.stages {
        assert_eq!(st.ambiguous, 0, "stage {:?} ambiguous", st.stage);
    }
    let text = render::isolation_text(&e);
    assert!(text.contains("isolated"));
}

#[test]
fn isolation_tiny_baseline_is_ambiguous_somewhere() {
    let e = experiments::isolation(&ModelParams::tiny(), Variant::Baseline, 25, 3);
    let total_ambiguous: usize = e.stages.iter().map(|s| s.ambiguous).sum();
    assert!(
        total_ambiguous > 0,
        "the baseline design must show isolation ambiguity: {e:#?}"
    );
}

#[test]
fn fig8_reduced_run() {
    let rows = experiments::fig8(&Fig8Params {
        n_instr: 8_000,
        seed: 5,
        benchmarks: Some(vec!["gzip".into(), "swim".into()]),
        ..Default::default()
    });
    assert_eq!(rows.len(), 2);
    for r in &rows {
        assert!(r.degradation_pct() > -2.0 && r.degradation_pct() < 15.0);
    }
}

#[test]
fn fig9_reduced_run_shows_rescue_advantage_growth() {
    let p = Fig9Params {
        n_instr: 4_000,
        seed: 5,
        growths: vec![1.3],
        nodes: vec![TechNode::NM90, TechNode::NM18],
        benchmarks: Some(vec!["gcc".into(), "mgrid".into()]),
        include_self_healing: true,
        ..Default::default()
    };
    let pts = fig9_points(&p);
    assert_eq!(pts.len(), 2);
    let adv = |p: &rescue_core::experiments::Fig9Point| p.yat.rescue / p.yat.core_sparing;
    // Rescue's advantage over CS grows with scaling.
    assert!(adv(&pts[1]) > adv(&pts[0]));
    // And the no-redundancy series collapses.
    assert!(pts[1].yat.none < pts[0].yat.none * 0.5);
}

fn fig9_points(p: &Fig9Params) -> Vec<rescue_core::experiments::Fig9Point> {
    experiments::fig9(&Scenario::pwp_stagnates_at_90nm(), p)
}

#[test]
fn shared_ipc_table_gives_each_panel_bit_for_bit() {
    let p = Fig9Params {
        n_instr: 1_000,
        seed: 5,
        growths: vec![1.2, 1.5],
        nodes: vec![TechNode::NM65, TechNode::NM18],
        benchmarks: Some(vec!["mcf".into(), "applu".into()]),
        include_self_healing: true,
        ..Default::default()
    };
    let scenarios = [
        Scenario::pwp_stagnates_at_90nm(),
        Scenario::pwp_stagnates_at_65nm(),
    ];
    let bits = |pts: &[rescue_core::experiments::Fig9Point]| -> Vec<[u64; 7]> {
        pts.iter()
            .map(|q| {
                [
                    q.node_nm.to_bits(),
                    q.growth.to_bits(),
                    q.yat.cores as u64,
                    q.yat.none.to_bits(),
                    q.yat.core_sparing.to_bits(),
                    q.yat.rescue.to_bits(),
                    q.rescue_self_healing.expect("requested").to_bits(),
                ]
            })
            .collect()
    };
    let panels = experiments::fig9_panels(&scenarios, &p);
    assert_eq!(panels.len(), 2);
    for (scenario, panel) in scenarios.iter().zip(&panels) {
        assert_eq!(panel.len(), 4);
        assert_eq!(bits(panel), bits(&experiments::fig9(scenario, &p)));
    }
}

#[test]
fn class_counts_mapping_roundtrip() {
    for cfg in CoreConfig::all_degraded() {
        let c = class_counts_of(&cfg);
        assert_eq!(c[0], cfg.frontend_groups);
        assert_eq!(c[4], cfg.int_be_groups);
    }
}

#[test]
fn csv_renderers_are_well_formed() {
    let rows = experiments::fig8(&Fig8Params {
        n_instr: 3_000,
        seed: 2,
        benchmarks: Some(vec!["gzip".into()]),
        ..Default::default()
    });
    let csv = render::fig8_csv(&rows);
    let mut lines = csv.lines();
    assert_eq!(
        lines.next().unwrap(),
        "benchmark,baseline_ipc,rescue_ipc,degradation_pct"
    );
    let data = lines.next().unwrap();
    assert!(data.starts_with("gzip,"));
    assert_eq!(data.split(',').count(), 4);
}
