//! Build your own benchmark: compose kernels into a `WorkloadSpec`, compile
//! it both ways and measure how each design choice moves the numbers.
//!
//! Run with: `cargo run --release --example custom_workload`

use ppsim::compiler::workloads::{KernelKind, KernelSpec, WorkloadClass, WorkloadSpec};
use ppsim::compiler::{compile, CompileOptions};
use ppsim::core::Table;
use ppsim::pipeline::{CoreConfig, PredicationModel, SchemeSpec, Simulator};

fn k(kind: KernelKind, filler: u8) -> KernelSpec {
    KernelSpec { kind, filler }
}

fn measure(spec: &WorkloadSpec, ifconv: bool, scheme: SchemeSpec) -> (f64, f64, f64) {
    let opts = if ifconv {
        CompileOptions::with_ifconv()
    } else {
        CompileOptions::no_ifconv()
    };
    let compiled = compile(spec, &opts).unwrap();
    let mut sim = Simulator::new(
        &compiled.program,
        scheme,
        PredicationModel::Selective,
        CoreConfig::paper(),
    );
    let s = sim.run(300_000).stats;
    (
        s.misprediction_rate() * 100.0,
        s.early_resolved_rate() * 100.0,
        s.ipc(),
    )
}

fn main() {
    // Three custom workloads that isolate one effect each.
    let workloads = vec![
        (
            "early-resolve-heavy",
            WorkloadSpec {
                name: "custom-early",
                class: WorkloadClass::Int,
                seed: 1,
                trips: i64::MAX / 2,
                array_words: 4096,
                kernels: vec![
                    k(KernelKind::HardRegion, 96),
                    k(KernelKind::InnerLoop { trips: 4 }, 0),
                ],
            },
        ),
        (
            "correlation-heavy",
            WorkloadSpec {
                name: "custom-corr",
                class: WorkloadClass::Int,
                seed: 2,
                trips: i64::MAX / 2,
                array_words: 4096,
                kernels: vec![k(KernelKind::Correlated, 12), k(KernelKind::Correlated, 12)],
            },
        ),
        (
            "aliasing-stress",
            WorkloadSpec {
                name: "custom-alias",
                class: WorkloadClass::Int,
                seed: 3,
                trips: i64::MAX / 2,
                array_words: 1024,
                kernels: (0..10)
                    .map(|i| k(KernelKind::Biased { pct: 52 + 4 * i }, 2))
                    .collect(),
            },
        ),
    ];

    let mut t = Table::new(
        "Custom workloads: conventional vs predicate predictor",
        &[
            "workload",
            "binary",
            "conv misp%",
            "pred misp%",
            "pred early%",
            "pred IPC",
        ],
    );
    for (label, spec) in &workloads {
        for ifconv in [false, true] {
            let (conv_rate, _, _) = measure(spec, ifconv, SchemeSpec::Conventional);
            let (pred_rate, early, ipc) = measure(spec, ifconv, SchemeSpec::Predicate);
            t.row(vec![
                label.to_string(),
                if ifconv { "if-conv" } else { "plain" }.to_string(),
                format!("{conv_rate:.2}"),
                format!("{pred_rate:.2}"),
                format!("{early:.2}"),
                format!("{ipc:.2}"),
            ]);
        }
    }
    println!("{t}");
    println!("Try editing the kernel mixes above: `filler` controls the compare-to-branch");
    println!("scheduling distance (early resolution), `Correlated` adds Figure-1 families,");
    println!("and many marginal `Biased` sites stress the predictor's table capacity.");
}
