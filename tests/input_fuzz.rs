//! Seeded mutation tests for the external inputs the simulator parses:
//! `.pptrace` files, CBP branch logs, `.pisa` listings and repro headers.
//! Every mutant must come back as a value or a typed error, never as a
//! panic, and every trace that decodes must replay through every scheme,
//! as `pptrace::decode` promises.

use std::sync::Arc;

use ppsim::check::{generate, parse_repro_header, Form};
use ppsim::isa::{parse_program, pptrace, TraceBuffer, TraceCursor};
use ppsim::pipeline::{PredicationModel, SimOptions};
use ppsim::predictors::SchemeSpec;
use ppsim::runner::hash::fnv1a64;

/// A loop with a compare-fed hammock, a loop-closing branch and a
/// load/store pair straddling a page boundary: every record kind and
/// every `.pptrace` section carries data.
const LOOP: &str = "\
    movl r1 = 0
    movl r4 = 4092
.L0:
    add r1 = r1, 1
    ld8 r2 = [r4+0]
    add r2 = r2, r1
    st8 [r4+0] = r2
    and r3 = r1, 3
    cmp.unc.eq p1, p2 = r3, 0
    (p1) add r5 = r5, 1
    (p2) br.cond .L1
    add r6 = r6, 1
.L1:
    cmp.unc.lt p3, p4 = r1, 40
    (p3) br.cond .L0
    halt
";

/// The xorshift generator of the serve crate's request fuzzer.
fn rng(mut seed: u64) -> impl FnMut() -> u64 {
    move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    }
}

/// Overwrites 1–4 bytes of `bytes[..limit]` with bytes drawn from
/// `alphabet` (any byte when it is empty).
fn mutate(
    bytes: &mut [u8],
    limit: usize,
    alphabet: &[u8],
    next: &mut impl FnMut() -> u64,
) -> String {
    let mut log = Vec::new();
    for _ in 0..1 + next() % 4 {
        let i = (next() % limit as u64) as usize;
        let b = if alphabet.is_empty() {
            next() as u8
        } else {
            alphabet[(next() % alphabet.len() as u64) as usize]
        };
        log.push(format!("[{i}] {:#04x}->{b:#04x}", bytes[i]));
        bytes[i] = b;
    }
    log.join(" ")
}

/// Replays a decoded or imported stream through every scheme to its end,
/// under the predication model mutant `k`'s parity picks.
fn replays_everywhere(buf: TraceBuffer, k: usize) {
    let predication = [PredicationModel::Cmov, PredicationModel::Selective][k % 2];
    let records = buf.len();
    let buf = Arc::new(buf);
    for scheme in SchemeSpec::ALL {
        SimOptions::new(scheme, predication)
            .build_source(TraceCursor::new(Arc::clone(&buf)))
            .expect("no overrides")
            .run(records);
    }
}

#[test]
fn mutated_pptrace_files_decode_to_a_value_or_a_typed_error() {
    let program = parse_program(LOOP).unwrap();
    let capture = TraceBuffer::capture(&program, u64::MAX).unwrap();
    assert!(capture.halted());
    let encoded = pptrace::encode(&capture, "fuzz", "seeded mutants", false);
    let body = encoded.len() - 8;
    let mut next = rng(0x5EED_0001);
    let mut decoded = 0;
    for k in 0..3000 {
        let mut bytes = encoded.clone();
        let log = mutate(&mut bytes, body, &[], &mut next);
        // Re-seal the checksum so the mutant reaches the section decoder.
        let sum = fnv1a64(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        let outcome = std::panic::catch_unwind(|| pptrace::decode(&bytes));
        match outcome {
            Ok(Ok((buf, _meta))) => {
                decoded += 1;
                replays_everywhere(buf, k);
            }
            Ok(Err(_typed)) => {}
            Err(_) => panic!("pptrace::decode panicked on mutant {k}: {log}"),
        }
    }
    assert!(decoded > 0, "some mutants must decode and replay");
}

#[test]
fn mutated_cbp_logs_import_to_a_value_or_a_typed_error() {
    let fixture = include_str!("../fixtures/cbp-branches.txt");
    let seed: String = fixture.lines().take(60).map(|l| format!("{l}\n")).collect();
    let alphabet = b"0123456789abcdefxX TNtn#\n-+";
    let mut next = rng(0x5EED_0002);
    let mut imported = 0;
    for k in 0..2000 {
        let mut bytes = seed.clone().into_bytes();
        let log = mutate(&mut bytes, seed.len(), alphabet, &mut next);
        let text = String::from_utf8(bytes).expect("ASCII mutations");
        match std::panic::catch_unwind(|| pptrace::import_cbp(&text)) {
            Ok(Ok((buf, _summary))) => {
                imported += 1;
                replays_everywhere(buf, k);
            }
            Ok(Err(_typed)) => {}
            Err(_) => panic!("pptrace::import_cbp panicked on mutant {k}: {log}"),
        }
    }
    assert!(imported > 0, "some mutants must import and replay");
}

#[test]
fn mutated_pisa_listings_and_repro_headers_parse_or_fail_cleanly() {
    let program = generate(0xC0FFEE, 5, Form::IfConverted);
    let source = format!(
        "// ppsim-check repro: seed 0xc0ffee iter 5 form ifconv cell predicate/selective\n\
         // [predicate/selective] seeded mutant\n{}",
        program.listing()
    );
    assert!(parse_program(&source).is_ok(), "the seed listing parses");
    assert!(
        parse_repro_header(&source).is_some(),
        "the seed header parses"
    );
    // Printable ASCII plus newlines, so every mutant is still a `&str`.
    let alphabet: Vec<u8> = (0x20..0x7f).chain([b'\n']).collect();
    let header_len = source.find('\n').unwrap() + 1;
    let mut next = rng(0x5EED_0003);
    for k in 0..3000 {
        let mut bytes = source.clone().into_bytes();
        // Half the mutants aim at the header line, half anywhere.
        let limit = if k % 2 == 0 { header_len } else { source.len() };
        let log = mutate(&mut bytes, limit, &alphabet, &mut next);
        let text = String::from_utf8(bytes).expect("ASCII mutations");
        let outcome = std::panic::catch_unwind(|| {
            let _ = parse_program(&text);
            let _ = parse_repro_header(&text);
        });
        assert!(outcome.is_ok(), "a parser panicked on mutant {k}: {log}");
    }
}
