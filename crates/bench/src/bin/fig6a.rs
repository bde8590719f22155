//! Regenerates Figure 6a: PEP-PA vs conventional vs predicate predictor
//! on if-converted binaries. Pass `--json PATH` for a machine-readable
//! artifact.

fn main() {
    use ppsim_core::experiments::fig6a_col;
    use ppsim_pipeline::SchemeSpec;

    let s = ppsim_bench::setup("fig6a");
    let r = ppsim_core::experiments::fig6a(&s.runner, &s.cfg);
    let (peppa, conv, pred) = (
        fig6a_col(SchemeSpec::PepPa),
        fig6a_col(SchemeSpec::Conventional),
        fig6a_col(SchemeSpec::Predicate),
    );
    println!("{}", r.table());
    println!(
        "average accuracy gain (predicate over conventional): {:+.2} points (paper: +1.5 vs best other)",
        r.accuracy_gain(conv, pred)
    );
    println!(
        "average accuracy gain (conventional over pep-pa):    {:+.2} points (paper: positive — PEP-PA degrades out of order)",
        r.accuracy_gain(peppa, conv)
    );
    println!(
        "average accuracy gain (tage over conventional):      {:+.2} points; (tage-h2p over tage): {:+.2}; (tage-predicate over predicate): {:+.2}",
        r.accuracy_gain(conv, fig6a_col(SchemeSpec::Tage)),
        r.accuracy_gain(fig6a_col(SchemeSpec::Tage), fig6a_col(SchemeSpec::TageH2p)),
        r.accuracy_gain(pred, fig6a_col(SchemeSpec::TagePredicate)),
    );
    s.finish(r.to_json());
}
