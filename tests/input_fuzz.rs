//! Seeded mutation tests for the external inputs the simulator parses:
//! `.pptrace` files, CBP branch logs, `.pisa` listings and repro headers.
//! Every mutant must come back as a value or a typed error, never as a
//! panic, and every trace that decodes must replay through every scheme,
//! as `pptrace::decode` promises. The CBP importer is also held to a
//! frozen copy of its original `&str` implementation, byte for byte.

use std::collections::BTreeMap;
use std::sync::Arc;

use ppsim::check::{generate, parse_repro_header, Form};
use ppsim::isa::pptrace::CbpSummary;
use ppsim::isa::{
    parse_program, pptrace, CmpRel, CmpType, ExecInfo, ExecRecord, Gr, Insn, Op, Operand, Pr,
    Program, TraceBuffer, TraceCursor,
};
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

/// The 2000 seeded 1–4-byte mutants of the fixture's first 60 lines.
fn cbp_mutants() -> Vec<(String, String)> {
    let fixture = include_str!("../fixtures/cbp-branches.txt");
    let seed: String = fixture.lines().take(60).map(|l| format!("{l}\n")).collect();
    let alphabet = b"0123456789abcdefxX TNtn#\n-+";
    let mut next = rng(0x5EED_0002);
    (0..2000)
        .map(|_| {
            let mut bytes = seed.clone().into_bytes();
            let log = mutate(&mut bytes, seed.len(), alphabet, &mut next);
            (String::from_utf8(bytes).expect("ASCII mutations"), log)
        })
        .collect()
}

#[test]
fn mutated_cbp_logs_import_to_a_value_or_a_typed_error() {
    let mut imported = 0;
    for (k, (text, log)) in cbp_mutants().into_iter().enumerate() {
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

/// The CBP importer as it stood before the one-pass rewrite: `&str`
/// lines, a `Vec` of parsed records, and a `BTreeMap` from IP to pair.
fn reference_import_cbp(text: &str) -> Result<(TraceBuffer, CbpSummary), String> {
    let mut parsed: Vec<(u64, bool)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let (Some(ip), Some(taken), None) = (fields.next(), fields.next(), fields.next()) else {
            return Err(format!(
                "corrupt .pptrace file: line {}: expected `<ip> <taken>`, got `{line}`",
                lineno + 1
            ));
        };
        let ip = if let Some(hex) = ip.strip_prefix("0x").or_else(|| ip.strip_prefix("0X")) {
            u64::from_str_radix(hex, 16)
        } else {
            ip.parse()
        }
        .map_err(|_| {
            format!(
                "corrupt .pptrace file: line {}: bad branch address `{ip}`",
                lineno + 1
            )
        })?;
        let taken = match taken {
            "1" | "T" | "t" => true,
            "0" | "N" | "n" => false,
            other => {
                return Err(format!(
                    "corrupt .pptrace file: line {}: bad taken flag `{other}` (want 1/0/T/N)",
                    lineno + 1
                ))
            }
        };
        parsed.push((ip, taken));
    }
    if parsed.is_empty() {
        return Err("corrupt .pptrace file: no branch records in input".into());
    }
    let mut index: BTreeMap<u64, u32> = parsed.iter().map(|&(ip, _)| (ip, 0)).collect();
    for (k, slot) in index.values_mut().enumerate() {
        *slot = k as u32;
    }
    let mut insns = Vec::with_capacity(index.len() * 2);
    for k in 0..index.len() as u32 {
        insns.push(Insn::new(Op::Cmp {
            ctype: CmpType::Unc,
            rel: CmpRel::Eq,
            pt: Pr::new(1),
            pf: Pr::new(2),
            src1: Gr::new(1),
            src2: Operand::imm(0),
        }));
        insns.push(Insn::guarded(Pr::new(1), Op::Br { target: 2 * k }));
    }
    let mut buf = TraceBuffer::new(&Program::from_insns(insns));
    let mut taken_count = 0u64;
    let mut seq = 0u64;
    for &(ip, taken) in &parsed {
        let k = index[&ip];
        let (cmp_slot, br_slot) = (2 * k, 2 * k + 1);
        taken_count += u64::from(taken);
        buf.push(&ExecRecord {
            seq,
            slot: cmp_slot,
            insn: buf.code()[cmp_slot as usize],
            qp: true,
            info: ExecInfo::Cmp {
                cond: taken,
                pt_write: Some(taken),
                pf_write: Some(!taken),
            },
            next_slot: br_slot,
        });
        seq += 1;
        buf.push(&ExecRecord {
            seq,
            slot: br_slot,
            insn: buf.code()[br_slot as usize],
            qp: taken,
            info: ExecInfo::Br {
                taken,
                target: cmp_slot,
            },
            next_slot: cmp_slot,
        });
        seq += 1;
    }
    let summary = CbpSummary {
        branches: parsed.len() as u64,
        taken: taken_count,
        static_branches: index.len() as u64,
        ips: index.keys().copied().collect(),
    };
    Ok((buf, summary))
}

/// A seeded corpus of small CBP logs in the unusual shapes the `&str`
/// rules accept or reject: decimal, `0x`/`0X` and `+`-signed IPs (one
/// IP spelled several ways), 17 and more hex
/// digits (with and without overflow), 20-digit decimals, tab, VT, FF,
/// NBSP, U+3000 and U+0085 separators, CRLF endings and bare CRs, `#`
/// comments (some non-ASCII), blank lines and malformed fields.
fn cbp_corpus() -> Vec<String> {
    const IPS: &[&str] = &[
        "4198400",
        "0x401000",
        "0X40200C",
        "0x40200c",
        "+4198400",
        "0x+401000",
        "0x00000000000401000",
        "0x0000000000000000401000",
        "00004198400",
        "18446744073709551615",
        "0xffffffffffffffff",
        "0",
        "0x0",
    ];
    const BAD_IPS: &[&str] = &[
        "0x10000000000000000",
        "0x123456789abcdef012",
        "18446744073709551616",
        "99999999999999999999",
        "0x",
        "+",
        "-5",
        "+0x401000",
        "0x40g000",
        "40x1000",
        "0x40\u{ff11}000",
        "\u{ff14}\u{ff10}",
        "",
    ];
    const FLAGS: &[&str] = &["1", "0", "T", "N", "t", "n"];
    const BAD_FLAGS: &[&str] = &["2", "x", "11", "TT", "-", "\u{ff11}", "T\u{a0}x"];
    const SEPS: &[&str] = &[
        " ", " ", " ", "\t", "  ", " \t ", "\x0b", "\x0c", "\u{a0}", "\u{3000}", "\u{85}",
    ];
    const PADS: &[&str] = &["", "", "", " ", "\t", "\x0b", "\u{a0}", "\u{3000}", "\r"];
    const ENDS: &[&str] = &["\n", "\n", "\n", "\r\n"];
    const REMARKS: &[&str] = &[
        "# comment",
        "#",
        "  # indented note",
        "# caf\u{e9} \u{3000} note",
        "",
        "   ",
        "\t",
        "\u{a0}",
    ];
    fn pick(options: &[&'static str], next: &mut impl FnMut() -> u64) -> &'static str {
        options[(next() % options.len() as u64) as usize]
    }
    let mut next = rng(0x5EED_0004);
    (0..600)
        .map(|_| {
            let mut log = String::new();
            for _ in 0..1 + next() % 24 {
                let roll = next() % 100;
                let line = if roll < 12 {
                    pick(REMARKS, &mut next).to_string()
                } else {
                    let bad = roll >= 97;
                    let ip = if bad && next().is_multiple_of(2) {
                        pick(BAD_IPS, &mut next)
                    } else {
                        pick(IPS, &mut next)
                    };
                    let flag = if bad && next().is_multiple_of(2) {
                        pick(BAD_FLAGS, &mut next)
                    } else {
                        pick(FLAGS, &mut next)
                    };
                    let mut line = format!(
                        "{}{ip}{}{flag}{}",
                        pick(PADS, &mut next),
                        pick(SEPS, &mut next),
                        pick(PADS, &mut next)
                    );
                    match next() % 16 {
                        0 => line.push_str(" # trailing note"),
                        1 => line.push_str("#glued"),
                        2 if bad => line.push_str(" extra"),
                        _ => {}
                    }
                    line
                };
                log.push_str(&line);
                log.push_str(pick(ENDS, &mut next));
            }
            if next().is_multiple_of(4) {
                // No final line ending, or (after `\r\n`) a bare CR.
                log.pop();
            }
            log
        })
        .collect()
}

#[test]
fn cbp_importer_matches_the_frozen_reference() {
    let fixture = include_str!("../fixtures/cbp-branches.txt").to_string();
    let inputs: Vec<String> = std::iter::once(fixture)
        .chain(cbp_mutants().into_iter().map(|(text, _)| text))
        .chain(cbp_corpus())
        .collect();
    let (mut ok, mut err) = (0, 0);
    for (k, text) in inputs.iter().enumerate() {
        let got = pptrace::import_cbp(text)
            .map(|(buf, summary)| (pptrace::content_hash(&buf), buf.len(), summary))
            .map_err(|e| e.to_string());
        let want = reference_import_cbp(text)
            .map(|(buf, summary)| (pptrace::content_hash(&buf), buf.len(), summary));
        assert_eq!(got, want, "input {k} differs from the reference: {text:?}");
        match got {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    assert!(ok > 600 && err > 600, "{ok} imported, {err} rejected");
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
