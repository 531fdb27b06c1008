//! Smoke tests of the experiment harness: every table and figure generator
//! runs end to end at a tiny scale and produces rows with the expected
//! structure.  The full-size reproduction is the `reproduce` binary of the
//! `msplit-bench` crate; these tests only guard the plumbing.

use multisplitting::core::experiment::{
    figure3, render_distant, render_overlap, render_perturbation, render_scalability, table2,
    table3, table4, ExperimentConfig,
};

fn smoke_config() -> ExperimentConfig {
    ExperimentConfig {
        scale: 0.01,
        min_n: 300,
        tolerance: 1e-8,
        max_iterations: 20_000,
    }
}

#[test]
fn table2_rows_have_expected_processor_counts() {
    let rows = table2(&smoke_config()).unwrap();
    let procs: Vec<usize> = rows.iter().map(|r| r.processors).collect();
    assert_eq!(procs, vec![4, 6, 8, 9, 12, 16, 20]);
    for row in &rows {
        assert!(row.sync_multisplitting.is_some());
        assert!(row.async_multisplitting.is_some());
        assert!(row.factorization.unwrap() > 0.0);
        assert!(row.sync_iterations > 0);
    }
    assert!(render_scalability("Table 2", &rows).contains("Table 2"));
}

#[test]
fn table3_covers_the_three_paper_configurations() {
    let rows = table3(&smoke_config()).unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0].cluster, "cluster2");
    assert_eq!(rows[1].cluster, "cluster3");
    assert_eq!(rows[2].matrix, "generated-500000");
    // The multisplitting solvers always run (their per-block memory is small).
    for row in &rows {
        assert!(row.sync_multisplitting.is_some(), "{}", row.matrix);
        assert!(row.async_multisplitting.is_some(), "{}", row.matrix);
    }
    // On the distant cluster the asynchronous variant must not be slower than
    // the synchronous one (the paper's Table 3 observation).
    let wan_row = &rows[2];
    assert!(wan_row.async_multisplitting.unwrap() <= wan_row.sync_multisplitting.unwrap() * 1.05);
    assert!(!render_distant(&rows).is_empty());
}

#[test]
fn table4_flow_counts_match_the_paper() {
    let rows = table4(&smoke_config()).unwrap();
    let flows: Vec<usize> = rows.iter().map(|r| r.flows).collect();
    assert_eq!(flows, vec![0, 1, 5, 10]);
    // Times are non-decreasing in the number of perturbing flows for the
    // synchronous solver.
    for pair in rows.windows(2) {
        assert!(
            pair[1].sync_multisplitting.unwrap() >= pair[0].sync_multisplitting.unwrap() * 0.999
        );
    }
    assert!(!render_perturbation(&rows).is_empty());
}

#[test]
fn figure3_produces_a_u_shaped_total_time_or_at_least_an_interior_optimum_candidate() {
    let mut cfg = smoke_config();
    cfg.min_n = 600;
    let rows = figure3(&cfg).unwrap();
    assert_eq!(rows.len(), 11);
    // Overlap axis is the paper's 0..5000 sweep.
    assert_eq!(rows.first().unwrap().overlap, 0);
    assert_eq!(rows.last().unwrap().overlap, 5000);
    // Factorization time grows monotonically (larger blocks).
    for pair in rows.windows(2) {
        assert!(pair[1].factorization_seconds >= pair[0].factorization_seconds * 0.999);
    }
    assert!(!render_overlap(&rows).is_empty());
}
