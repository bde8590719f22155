//! The paper's Figure 1, end to end: build a nested hammock whose region
//! branch correlates with two feeder conditions, if-convert it, and watch
//! where the correlation information lives before and after.
//!
//! Run with: `cargo run --release --example ifconversion_study`

use ppsim::compiler::ifconvert::{if_convert, IfConvertConfig};
use ppsim::compiler::lower::lower;
use ppsim::compiler::profile::profile_run;
use ppsim::compiler::workloads::{
    build_module, KernelKind, KernelSpec, WorkloadClass, WorkloadSpec,
};
use ppsim::pipeline::{CoreConfig, PredicationModel, SchemeSpec, Simulator};

fn main() {
    // A workload dominated by one Figure-1 family: two hard feeder
    // branches plus a region branch computing their AND.
    let spec = WorkloadSpec {
        name: "figure1",
        class: WorkloadClass::Int,
        seed: 2007,
        trips: i64::MAX / 2,
        array_words: 4096,
        kernels: vec![KernelSpec {
            kind: KernelKind::Correlated,
            filler: 12,
        }],
    };

    let mut module = build_module(&spec);
    let plain = lower(&module, true).unwrap();
    println!(
        "=== original code: {} conditional branches ===",
        module.cfg.cond_branch_count()
    );

    let profile = profile_run(&plain, 200_000).unwrap();
    let stats = if_convert(&mut module.cfg, &profile, &IfConvertConfig::default());
    let converted = lower(&module, true).unwrap();
    println!(
        "=== after if-conversion: {} converted, {} conditional branches remain ===",
        stats.converted,
        module.cfg.cond_branch_count()
    );
    println!("{}", converted.program.listing());

    println!("The feeder branches are gone, but their compares remain — and only a");
    println!("predictor that observes *compare* outcomes can still predict the region branch:\n");

    for (label, program) in [
        ("original", &plain.program),
        ("if-converted", &converted.program),
    ] {
        for scheme in [SchemeSpec::Conventional, SchemeSpec::Predicate] {
            let mut sim = Simulator::new(
                program,
                scheme,
                PredicationModel::Selective,
                CoreConfig::paper(),
            );
            let s = sim.run(400_000).stats;
            println!(
                "  {label:13} + {:13}: misprediction rate {:5.2}%  (IPC {:.2})",
                scheme.name(),
                s.misprediction_rate() * 100.0,
                s.ipc()
            );
        }
    }
    println!("\nOn the original code both predictors see the feeder outcomes in their");
    println!("global history. On the if-converted code the conventional predictor has");
    println!("lost them; the predicate predictor keeps the correlation (paper §3.1).");
}
