//! `.pptrace` — the versioned on-disk trace format, plus an importer
//! for CBP-style external branch traces.
//!
//! [`TraceBuffer`] is the in-memory capture-once/replay-many structure;
//! this module gives it a durable, documented file form so traces can
//! be exported once and replayed across processes, machines and
//! simulator versions, and so *external* workload streams (not produced
//! by our own functional machine) can drive the timing model.
//!
//! # File layout (version 1)
//!
//! ```text
//! magic     8 bytes   "PPTRACE\0"
//! version   u32 LE    1
//! header    flags byte (bit 0 halted, bit 1 branches-only)
//!           name:  varint length + UTF-8 bytes
//!           note:  varint length + UTF-8 bytes (free-form metadata)
//!           varint n_insns, n_records, n_addrs
//!           varint insn_len, slot_len, addr_len (section byte sizes)
//! body      insn section   (n_insns instructions, opcode-byte codec)
//!           slot section   (n_records slots, delta + zigzag varint)
//!           flag section   (n_records raw flag bytes)
//!           addr section   (n_addrs addresses, delta + zigzag varint)
//! checksum  u64 LE    FNV-1a over every preceding byte
//! ```
//!
//! All varints are LEB128 over `u64`; signed values are zigzag-mapped
//! first. The header is self-delimiting, so [`peek_meta`] reads it from
//! a file *prefix* without loading the body — that is what
//! `ppsim trace info` does. Slots are stored as deltas because the
//! stream revisits the same small slot range every loop iteration;
//! addresses as deltas because accesses walk arrays. The trailing
//! checksum covers magic, version, header and body, so any truncation
//! or corruption that survives the structural checks is still caught.
//!
//! # Degraded branches-only mode
//!
//! CBP-style traces carry only `{ip, taken}` conditional-branch
//! records — no register values, no memory addresses, no non-branch
//! instructions. [`import_cbp`] synthesizes a minimal compare-and-branch
//! skeleton: each distinct branch IP becomes a two-slot static pair
//! (an unguarded `cmp.unc.eq p1, p2 = r1, 0` producer at slot `2k`, a
//! `(p1) br.cond` consumer at slot `2k+1`), and each dynamic record
//! becomes a compare record whose condition equals the branch outcome
//! followed by the branch record itself. The synthesized stream is
//! architecturally meaningless but *timing-faithful for branch
//! prediction studies*: every scheme sees the real dynamic
//! taken/not-taken sequence keyed by per-IP PCs, predicate schemes see
//! the producing compare, and MPKI / per-PC H2P numbers are exact.
//! Memory behavior, data dependences and ILP are not represented —
//! reports over such traces label the mode "branches-only".
//!
//! The import is one pass that writes the buffer's columns directly: a
//! branch costs its two slots and two flag bytes (10 bytes) and nothing
//! else is held per branch. Pair ids are handed out provisionally in
//! first-appearance order and remapped once at the end, so the pair
//! numbering is still "lowest IP is pair 0", whatever the log's order.
//! Lines are tokenized as bytes; a line the byte tokenizer does not
//! recognise as plain (non-ASCII bytes, signed or overlong IPs,
//! malformed fields) is parsed by `&str` rules, which give it its
//! meaning or its error, so results do not depend on the tokenizer.

use std::collections::HashMap;
use std::fmt;

use crate::exec::ExecInfo;
use crate::insn::{AluKind, CmpRel, CmpType, FpuKind, Insn, Op, Operand};
use crate::reg::{Fr, Gr, Pr};
use crate::trace::{flag_byte, TraceBuffer, KIND_BR, KIND_MASK, KIND_MEM, KIND_SHIFT};

/// File magic: identifies a `.pptrace` stream.
pub const MAGIC: [u8; 8] = *b"PPTRACE\0";

/// Current (and only) format version.
pub const VERSION: u32 = 1;

const FLAG_HALTED: u8 = 1;
const FLAG_BRANCHES_ONLY: u8 = 1 << 1;

/// Why a `.pptrace` byte stream was rejected.
///
/// Every malformed input maps to one of these — the decoder never
/// panics, whatever the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceFileError {
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream's version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The stream ends before the structure it promises.
    Truncated,
    /// A structural invariant is violated (with a human-readable why).
    Corrupt(String),
    /// The trailing checksum does not match the stream contents.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the received bytes.
        computed: u64,
    },
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::BadMagic => write!(f, "not a .pptrace file (bad magic)"),
            TraceFileError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported .pptrace version {v} (this build reads {VERSION})"
                )
            }
            TraceFileError::Truncated => write!(f, "truncated .pptrace file"),
            TraceFileError::Corrupt(why) => write!(f, "corrupt .pptrace file: {why}"),
            TraceFileError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: file says {stored:#018x}, contents hash to {computed:#018x}"
            ),
        }
    }
}

impl std::error::Error for TraceFileError {}

/// Header metadata of a `.pptrace` stream (readable from a prefix via
/// [`peek_meta`], without decoding the body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Workload name (benchmark name, or the import source).
    pub name: String,
    /// Free-form provenance note (compile flags, import options, ...).
    pub note: String,
    /// Whether the captured stream ended in a `halt`.
    pub halted: bool,
    /// Whether this is a degraded branches-only import (see module docs).
    pub branches_only: bool,
    /// Dynamic records in the stream.
    pub records: u64,
    /// Static instructions in the code image.
    pub static_insns: u64,
    /// Memory-address side-array entries.
    pub addrs: u64,
}

// ---------------------------------------------------------------------------
// Primitives: FNV-1a, varint, zigzag.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `state` (seed with
/// [`FNV_OFFSET`] via [`fnv1a`]).
fn fnv1a_continue(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(FNV_OFFSET, bytes)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_svarint(out: &mut Vec<u8>, v: i64) {
    put_varint(out, zigzag(v));
}

/// A bounds-checked sequential reader; every read can fail with
/// [`TraceFileError::Truncated`] instead of panicking.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceFileError> {
        let end = self.pos.checked_add(n).ok_or(TraceFileError::Truncated)?;
        if end > self.bytes.len() {
            return Err(TraceFileError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, TraceFileError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, TraceFileError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(TraceFileError::Corrupt("varint overflows u64".into()));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn svarint(&mut self) -> Result<i64, TraceFileError> {
        Ok(unzigzag(self.varint()?))
    }
}

// ---------------------------------------------------------------------------
// Instruction codec.

const OP_ALU: u8 = 0;
const OP_MOVI: u8 = 1;
const OP_CMP: u8 = 2;
const OP_FCMP: u8 = 3;
const OP_FPU: u8 = 4;
const OP_ITOF: u8 = 5;
const OP_FTOI: u8 = 6;
const OP_LOAD: u8 = 7;
const OP_STORE: u8 = 8;
const OP_LOADF: u8 = 9;
const OP_STOREF: u8 = 10;
const OP_BR: u8 = 11;
const OP_NOP: u8 = 12;
const OP_HALT: u8 = 13;

fn alu_kind_code(k: AluKind) -> u8 {
    match k {
        AluKind::Add => 0,
        AluKind::Sub => 1,
        AluKind::And => 2,
        AluKind::Or => 3,
        AluKind::Xor => 4,
        AluKind::Shl => 5,
        AluKind::Shr => 6,
        AluKind::Mul => 7,
    }
}

fn alu_kind(b: u8) -> Result<AluKind, TraceFileError> {
    Ok(match b {
        0 => AluKind::Add,
        1 => AluKind::Sub,
        2 => AluKind::And,
        3 => AluKind::Or,
        4 => AluKind::Xor,
        5 => AluKind::Shl,
        6 => AluKind::Shr,
        7 => AluKind::Mul,
        _ => return Err(TraceFileError::Corrupt(format!("bad ALU kind {b}"))),
    })
}

fn fpu_kind_code(k: FpuKind) -> u8 {
    match k {
        FpuKind::Fadd => 0,
        FpuKind::Fsub => 1,
        FpuKind::Fmul => 2,
        FpuKind::Fdiv => 3,
    }
}

fn fpu_kind(b: u8) -> Result<FpuKind, TraceFileError> {
    Ok(match b {
        0 => FpuKind::Fadd,
        1 => FpuKind::Fsub,
        2 => FpuKind::Fmul,
        3 => FpuKind::Fdiv,
        _ => return Err(TraceFileError::Corrupt(format!("bad FPU kind {b}"))),
    })
}

fn cmp_type_code(t: CmpType) -> u8 {
    match t {
        CmpType::None => 0,
        CmpType::Unc => 1,
        CmpType::And => 2,
        CmpType::Or => 3,
    }
}

fn cmp_type(b: u8) -> Result<CmpType, TraceFileError> {
    Ok(match b {
        0 => CmpType::None,
        1 => CmpType::Unc,
        2 => CmpType::And,
        3 => CmpType::Or,
        _ => return Err(TraceFileError::Corrupt(format!("bad compare type {b}"))),
    })
}

fn cmp_rel_code(r: CmpRel) -> u8 {
    match r {
        CmpRel::Eq => 0,
        CmpRel::Ne => 1,
        CmpRel::Lt => 2,
        CmpRel::Le => 3,
        CmpRel::Gt => 4,
        CmpRel::Ge => 5,
    }
}

fn cmp_rel(b: u8) -> Result<CmpRel, TraceFileError> {
    Ok(match b {
        0 => CmpRel::Eq,
        1 => CmpRel::Ne,
        2 => CmpRel::Lt,
        3 => CmpRel::Le,
        4 => CmpRel::Gt,
        5 => CmpRel::Ge,
        _ => return Err(TraceFileError::Corrupt(format!("bad compare relation {b}"))),
    })
}

fn gr(b: u8) -> Result<Gr, TraceFileError> {
    Gr::try_new(b).ok_or_else(|| TraceFileError::Corrupt(format!("bad integer register r{b}")))
}

fn fr(b: u8) -> Result<Fr, TraceFileError> {
    Fr::try_new(b).ok_or_else(|| TraceFileError::Corrupt(format!("bad float register f{b}")))
}

fn pr(b: u8) -> Result<Pr, TraceFileError> {
    Pr::try_new(b).ok_or_else(|| TraceFileError::Corrupt(format!("bad predicate register p{b}")))
}

fn put_operand(out: &mut Vec<u8>, operand: Operand) {
    match operand {
        Operand::Reg(r) => {
            out.push(0);
            out.push(r.index() as u8);
        }
        Operand::Imm(v) => {
            out.push(1);
            put_svarint(out, v);
        }
    }
}

fn get_operand(r: &mut Reader<'_>) -> Result<Operand, TraceFileError> {
    match r.u8()? {
        0 => Ok(Operand::Reg(gr(r.u8()?)?)),
        1 => Ok(Operand::Imm(r.svarint()?)),
        t => Err(TraceFileError::Corrupt(format!("bad operand tag {t}"))),
    }
}

fn put_insn(out: &mut Vec<u8>, insn: &Insn) {
    out.push(insn.qp.index() as u8);
    match insn.op {
        Op::Alu {
            kind,
            dst,
            src1,
            src2,
        } => {
            out.push(OP_ALU);
            out.push(alu_kind_code(kind));
            out.push(dst.index() as u8);
            out.push(src1.index() as u8);
            put_operand(out, src2);
        }
        Op::Movi { dst, imm } => {
            out.push(OP_MOVI);
            out.push(dst.index() as u8);
            put_svarint(out, imm);
        }
        Op::Cmp {
            ctype,
            rel,
            pt,
            pf,
            src1,
            src2,
        } => {
            out.push(OP_CMP);
            out.push(cmp_type_code(ctype));
            out.push(cmp_rel_code(rel));
            out.push(pt.index() as u8);
            out.push(pf.index() as u8);
            out.push(src1.index() as u8);
            put_operand(out, src2);
        }
        Op::Fcmp {
            ctype,
            rel,
            pt,
            pf,
            src1,
            src2,
        } => {
            out.push(OP_FCMP);
            out.push(cmp_type_code(ctype));
            out.push(cmp_rel_code(rel));
            out.push(pt.index() as u8);
            out.push(pf.index() as u8);
            out.push(src1.index() as u8);
            out.push(src2.index() as u8);
        }
        Op::Fpu {
            kind,
            dst,
            src1,
            src2,
        } => {
            out.push(OP_FPU);
            out.push(fpu_kind_code(kind));
            out.push(dst.index() as u8);
            out.push(src1.index() as u8);
            out.push(src2.index() as u8);
        }
        Op::Itof { dst, src } => {
            out.push(OP_ITOF);
            out.push(dst.index() as u8);
            out.push(src.index() as u8);
        }
        Op::Ftoi { dst, src } => {
            out.push(OP_FTOI);
            out.push(dst.index() as u8);
            out.push(src.index() as u8);
        }
        Op::Load { dst, base, offset } => {
            out.push(OP_LOAD);
            out.push(dst.index() as u8);
            out.push(base.index() as u8);
            put_svarint(out, offset);
        }
        Op::Store { src, base, offset } => {
            out.push(OP_STORE);
            out.push(src.index() as u8);
            out.push(base.index() as u8);
            put_svarint(out, offset);
        }
        Op::Loadf { dst, base, offset } => {
            out.push(OP_LOADF);
            out.push(dst.index() as u8);
            out.push(base.index() as u8);
            put_svarint(out, offset);
        }
        Op::Storef { src, base, offset } => {
            out.push(OP_STOREF);
            out.push(src.index() as u8);
            out.push(base.index() as u8);
            put_svarint(out, offset);
        }
        Op::Br { target } => {
            out.push(OP_BR);
            put_varint(out, u64::from(target));
        }
        Op::Nop => out.push(OP_NOP),
        Op::Halt => out.push(OP_HALT),
    }
}

fn get_insn(r: &mut Reader<'_>) -> Result<Insn, TraceFileError> {
    let qp = pr(r.u8()?)?;
    let opcode = r.u8()?;
    let op = match opcode {
        OP_ALU => Op::Alu {
            kind: alu_kind(r.u8()?)?,
            dst: gr(r.u8()?)?,
            src1: gr(r.u8()?)?,
            src2: get_operand(r)?,
        },
        OP_MOVI => Op::Movi {
            dst: gr(r.u8()?)?,
            imm: r.svarint()?,
        },
        OP_CMP => Op::Cmp {
            ctype: cmp_type(r.u8()?)?,
            rel: cmp_rel(r.u8()?)?,
            pt: pr(r.u8()?)?,
            pf: pr(r.u8()?)?,
            src1: gr(r.u8()?)?,
            src2: get_operand(r)?,
        },
        OP_FCMP => Op::Fcmp {
            ctype: cmp_type(r.u8()?)?,
            rel: cmp_rel(r.u8()?)?,
            pt: pr(r.u8()?)?,
            pf: pr(r.u8()?)?,
            src1: fr(r.u8()?)?,
            src2: fr(r.u8()?)?,
        },
        OP_FPU => Op::Fpu {
            kind: fpu_kind(r.u8()?)?,
            dst: fr(r.u8()?)?,
            src1: fr(r.u8()?)?,
            src2: fr(r.u8()?)?,
        },
        OP_ITOF => Op::Itof {
            dst: fr(r.u8()?)?,
            src: gr(r.u8()?)?,
        },
        OP_FTOI => Op::Ftoi {
            dst: gr(r.u8()?)?,
            src: fr(r.u8()?)?,
        },
        OP_LOAD => Op::Load {
            dst: gr(r.u8()?)?,
            base: gr(r.u8()?)?,
            offset: r.svarint()?,
        },
        OP_STORE => Op::Store {
            src: gr(r.u8()?)?,
            base: gr(r.u8()?)?,
            offset: r.svarint()?,
        },
        OP_LOADF => Op::Loadf {
            dst: fr(r.u8()?)?,
            base: gr(r.u8()?)?,
            offset: r.svarint()?,
        },
        OP_STOREF => Op::Storef {
            src: fr(r.u8()?)?,
            base: gr(r.u8()?)?,
            offset: r.svarint()?,
        },
        OP_BR => {
            let target = r.varint()?;
            let target = u32::try_from(target)
                .map_err(|_| TraceFileError::Corrupt(format!("branch target {target} > u32")))?;
            Op::Br { target }
        }
        OP_NOP => Op::Nop,
        OP_HALT => Op::Halt,
        _ => return Err(TraceFileError::Corrupt(format!("unknown opcode {opcode}"))),
    };
    Ok(Insn::guarded(qp, op))
}

// ---------------------------------------------------------------------------
// Sections.

fn encode_sections(buf: &TraceBuffer) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let (insns, slots, _flags, addrs, _halted) = buf.parts();
    let mut insn_sec = Vec::new();
    for insn in insns {
        put_insn(&mut insn_sec, insn);
    }
    let mut slot_sec = Vec::new();
    let mut prev = 0i64;
    for &slot in slots {
        put_svarint(&mut slot_sec, i64::from(slot) - prev);
        prev = i64::from(slot);
    }
    let mut addr_sec = Vec::new();
    let mut prev = 0u64;
    for &addr in addrs {
        put_svarint(&mut addr_sec, addr.wrapping_sub(prev) as i64);
        prev = addr;
    }
    (insn_sec, slot_sec, addr_sec)
}

/// Content identity of a trace stream: an FNV-1a hash over the encoded
/// instruction/slot/flag/address sections plus the halted marker —
/// everything that affects replay, and nothing that doesn't (the name
/// and note are excluded, so a renamed export keeps its cache identity).
pub fn content_hash(buf: &TraceBuffer) -> u64 {
    let (_, _, flags, _, halted) = buf.parts();
    let (insn_sec, slot_sec, addr_sec) = encode_sections(buf);
    let mut h = fnv1a(&insn_sec);
    h = fnv1a_continue(h, &slot_sec);
    h = fnv1a_continue(h, flags);
    h = fnv1a_continue(h, &addr_sec);
    fnv1a_continue(h, &[u8::from(halted)])
}

/// Encodes `buf` into `.pptrace` bytes (see the module docs for the
/// layout). `name` and `note` are stored as provenance metadata only;
/// they do not affect [`content_hash`].
pub fn encode(buf: &TraceBuffer, name: &str, note: &str, branches_only: bool) -> Vec<u8> {
    let (insns, slots, flags, addrs, halted) = buf.parts();
    let (insn_sec, slot_sec, addr_sec) = encode_sections(buf);

    let mut out = Vec::with_capacity(
        64 + name.len()
            + note.len()
            + insn_sec.len()
            + slot_sec.len()
            + flags.len()
            + addr_sec.len(),
    );
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    let mut header_flags = 0u8;
    if halted {
        header_flags |= FLAG_HALTED;
    }
    if branches_only {
        header_flags |= FLAG_BRANCHES_ONLY;
    }
    out.push(header_flags);
    put_varint(&mut out, name.len() as u64);
    out.extend_from_slice(name.as_bytes());
    put_varint(&mut out, note.len() as u64);
    out.extend_from_slice(note.as_bytes());
    put_varint(&mut out, insns.len() as u64);
    put_varint(&mut out, slots.len() as u64);
    put_varint(&mut out, addrs.len() as u64);
    put_varint(&mut out, insn_sec.len() as u64);
    put_varint(&mut out, slot_sec.len() as u64);
    put_varint(&mut out, addr_sec.len() as u64);
    out.extend_from_slice(&insn_sec);
    out.extend_from_slice(&slot_sec);
    out.extend_from_slice(flags);
    out.extend_from_slice(&addr_sec);
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

struct Header {
    meta: TraceMeta,
    insn_len: usize,
    slot_len: usize,
    addr_len: usize,
    /// Byte offset just past the header (start of the insn section).
    body_start: usize,
}

fn parse_header(bytes: &[u8]) -> Result<Header, TraceFileError> {
    let mut r = Reader::new(bytes);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(TraceFileError::BadMagic);
    }
    let version = u32::from_le_bytes(r.take(4)?.try_into().expect("4-byte slice"));
    if version != VERSION {
        return Err(TraceFileError::UnsupportedVersion(version));
    }
    let header_flags = r.u8()?;
    let name_len = usize::try_from(r.varint()?)
        .map_err(|_| TraceFileError::Corrupt("name length > usize".into()))?;
    let name = String::from_utf8(r.take(name_len)?.to_vec())
        .map_err(|_| TraceFileError::Corrupt("name is not UTF-8".into()))?;
    let note_len = usize::try_from(r.varint()?)
        .map_err(|_| TraceFileError::Corrupt("note length > usize".into()))?;
    let note = String::from_utf8(r.take(note_len)?.to_vec())
        .map_err(|_| TraceFileError::Corrupt("note is not UTF-8".into()))?;
    let static_insns = r.varint()?;
    let records = r.varint()?;
    let addrs = r.varint()?;
    let sec = |r: &mut Reader<'_>, what: &str| -> Result<usize, TraceFileError> {
        usize::try_from(r.varint()?)
            .map_err(|_| TraceFileError::Corrupt(format!("{what} section length > usize")))
    };
    let insn_len = sec(&mut r, "instruction")?;
    let slot_len = sec(&mut r, "slot")?;
    let addr_len = sec(&mut r, "address")?;
    Ok(Header {
        meta: TraceMeta {
            name,
            note,
            halted: header_flags & FLAG_HALTED != 0,
            branches_only: header_flags & FLAG_BRANCHES_ONLY != 0,
            records,
            static_insns,
            addrs,
        },
        insn_len,
        slot_len,
        addr_len,
        body_start: r.pos,
    })
}

/// Reads the header metadata from a `.pptrace` prefix (the body and
/// checksum need not be present). Used by `ppsim trace info` to
/// describe a file without loading it.
///
/// # Errors
///
/// Structural [`TraceFileError`]s; the checksum is *not* verified (it
/// sits at the end of the stream).
pub fn peek_meta(bytes: &[u8]) -> Result<TraceMeta, TraceFileError> {
    Ok(parse_header(bytes)?.meta)
}

/// Decodes a complete `.pptrace` byte stream back into a
/// [`TraceBuffer`] and its metadata.
///
/// The decode is strict: length bookkeeping must be exact, the
/// checksum must match, every register/opcode must be valid, every
/// record's slot must index the code image, branch records must sit on
/// branch slots, and the memory-record count must equal the address
/// side-array length. A buffer that decodes successfully can be
/// replayed without panicking.
///
/// # Errors
///
/// A [`TraceFileError`] describing the first violation found.
pub fn decode(bytes: &[u8]) -> Result<(TraceBuffer, TraceMeta), TraceFileError> {
    let header = parse_header(bytes)?;
    let n_records = usize::try_from(header.meta.records)
        .map_err(|_| TraceFileError::Corrupt("record count > usize".into()))?;
    let n_insns = usize::try_from(header.meta.static_insns)
        .map_err(|_| TraceFileError::Corrupt("instruction count > usize".into()))?;
    let n_addrs = usize::try_from(header.meta.addrs)
        .map_err(|_| TraceFileError::Corrupt("address count > usize".into()))?;

    let body_len = header
        .insn_len
        .checked_add(header.slot_len)
        .and_then(|n| n.checked_add(n_records))
        .and_then(|n| n.checked_add(header.addr_len))
        .ok_or_else(|| TraceFileError::Corrupt("section lengths overflow".into()))?;
    let total = header
        .body_start
        .checked_add(body_len)
        .and_then(|n| n.checked_add(8))
        .ok_or_else(|| TraceFileError::Corrupt("file length overflows".into()))?;
    if bytes.len() < total {
        return Err(TraceFileError::Truncated);
    }
    if bytes.len() > total {
        return Err(TraceFileError::Corrupt(format!(
            "{} trailing bytes after checksum",
            bytes.len() - total
        )));
    }
    let stored = u64::from_le_bytes(bytes[total - 8..].try_into().expect("8-byte slice"));
    let computed = fnv1a(&bytes[..total - 8]);
    if stored != computed {
        return Err(TraceFileError::ChecksumMismatch { stored, computed });
    }

    let mut r = Reader::new(&bytes[header.body_start..total - 8]);
    let insn_sec = Reader::new(r.take(header.insn_len)?);
    let slot_sec = Reader::new(r.take(header.slot_len)?);
    let flags = r.take(n_records)?.to_vec();
    let addr_sec = Reader::new(r.take(header.addr_len)?);

    let mut insns = Vec::with_capacity(n_insns.min(1 << 20));
    let mut ir = insn_sec;
    for _ in 0..n_insns {
        insns.push(get_insn(&mut ir)?);
    }
    if ir.pos != ir.bytes.len() {
        return Err(TraceFileError::Corrupt(
            "instruction section has trailing bytes".into(),
        ));
    }

    let mut slots = Vec::with_capacity(n_records.min(1 << 24));
    let mut sr = slot_sec;
    let mut prev = 0i64;
    for i in 0..n_records {
        let slot = prev + sr.svarint()?;
        let slot = u32::try_from(slot).map_err(|_| {
            TraceFileError::Corrupt(format!("record {i}: slot {slot} out of range"))
        })?;
        if slot as usize >= n_insns {
            return Err(TraceFileError::Corrupt(format!(
                "record {i}: slot {slot} >= {n_insns} static instructions"
            )));
        }
        slots.push(slot);
        prev = i64::from(slot);
    }
    if sr.pos != sr.bytes.len() {
        return Err(TraceFileError::Corrupt(
            "slot section has trailing bytes".into(),
        ));
    }

    let mut addrs = Vec::with_capacity(n_addrs.min(1 << 24));
    let mut ar = addr_sec;
    let mut prev = 0u64;
    for _ in 0..n_addrs {
        let addr = prev.wrapping_add(ar.svarint()? as u64);
        addrs.push(addr);
        prev = addr;
    }
    if ar.pos != ar.bytes.len() {
        return Err(TraceFileError::Corrupt(
            "address section has trailing bytes".into(),
        ));
    }

    // Replay-safety invariants: branch flag bytes must sit on branch
    // slots (record reconstruction reads the target from the static
    // image) and the mem-record count must match the side array.
    let mut mem_records = 0usize;
    for (i, (&flag, &slot)) in flags.iter().zip(&slots).enumerate() {
        match (flag >> KIND_SHIFT) & KIND_MASK {
            KIND_BR if !matches!(insns[slot as usize].op, Op::Br { .. }) => {
                return Err(TraceFileError::Corrupt(format!(
                    "record {i}: branch record on non-branch slot {slot}"
                )));
            }
            KIND_MEM => mem_records += 1,
            _ => {}
        }
    }
    if mem_records != n_addrs {
        return Err(TraceFileError::Corrupt(format!(
            "{mem_records} memory records but {n_addrs} side-array addresses"
        )));
    }

    let buf = TraceBuffer::from_parts(insns, slots, flags, addrs, header.meta.halted);
    Ok((buf, header.meta))
}

// ---------------------------------------------------------------------------
// CBP-style branch-trace import.

/// What [`import_cbp`] synthesized (for reporting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CbpSummary {
    /// Dynamic conditional-branch records in the input.
    pub branches: u64,
    /// Of those, how many were taken.
    pub taken: u64,
    /// Distinct static branch IPs.
    pub static_branches: u64,
    /// The distinct IPs in ascending order: IP `ips[k]` became the
    /// static slot pair `(2k, 2k+1)`, so reports can translate
    /// synthesized slots back to the source trace's addresses.
    pub ips: Vec<u64>,
}

/// Imports a CBP-style textual branch trace into a [`TraceBuffer`]
/// (degraded branches-only mode — see the module docs).
///
/// Input format, one record per line: `<ip> <taken>`, where `ip` is a
/// hex (`0x…`) or decimal instruction address and `taken` is one of
/// `1/0/T/N/t/n`. Blank lines and `#` comments are ignored.
///
/// One pass writes the buffer's slot and flag columns directly (see the
/// module docs): each new IP takes the next provisional pair id, and the
/// ids are remapped to ascending-IP order once the input ends. Lines in
/// the plain form (ASCII, an unsigned decimal or `0x` IP of at most 19
/// or 16 digits, a one-character flag) are tokenized as bytes; every
/// other line goes through the original `&str` rules, which decide
/// what it means and word its error.
///
/// # Errors
///
/// [`TraceFileError::Corrupt`] naming the offending line for malformed
/// input, or if the input contains no records.
pub fn import_cbp(text: &str) -> Result<(TraceBuffer, CbpSummary), TraceFileError> {
    let bytes = text.as_bytes();
    // A record line holds at least three bytes plus its newline, so the
    // length bounds the count too: a flood of blank lines reserves at
    // most 2.5 bytes per input byte.
    let lines = bytes.iter().filter(|&&b| b == b'\n').count() + 1;
    let records = lines.min(bytes.len().div_ceil(4));
    let mut slots: Vec<u32> = Vec::with_capacity(2 * records);
    let mut flags: Vec<u8> = Vec::with_capacity(2 * records);
    // Flag bytes of the (compare, branch) pair, indexed by the outcome.
    let pair_flags = [false, true].map(|taken| {
        let cmp = ExecInfo::Cmp {
            cond: taken,
            pt_write: Some(taken),
            pf_write: Some(!taken),
        };
        let br = ExecInfo::Br { taken, target: 0 };
        [flag_byte(true, &cmp), flag_byte(taken, &br)]
    });
    // Provisional pair ids in first-appearance order.
    let mut pair_of: HashMap<u64, u32> = HashMap::new();
    let mut ips: Vec<u64> = Vec::new();
    let mut taken_count = 0u64;

    let mut pos = 0;
    let mut lineno = 0;
    while pos < bytes.len() {
        lineno += 1;
        let (record, next) = match scan_cbp_line(bytes, pos) {
            Some(scanned) => scanned,
            None => {
                let end = bytes[pos..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |n| pos + n);
                (parse_cbp_line(&text[pos..end], lineno)?, end + 1)
            }
        };
        pos = next;
        let Some((ip, taken)) = record else { continue };
        let k = *pair_of.entry(ip).or_insert_with(|| {
            ips.push(ip);
            ips.len() as u32 - 1
        });
        slots.extend_from_slice(&[2 * k, 2 * k + 1]);
        flags.extend_from_slice(&pair_flags[usize::from(taken)]);
        taken_count += u64::from(taken);
    }
    if slots.is_empty() {
        return Err(TraceFileError::Corrupt("no branch records in input".into()));
    }

    // Deterministic static skeleton: distinct IPs in ascending order,
    // each a (compare producer, guarded branch consumer) slot pair.
    let mut order: Vec<u32> = (0..ips.len() as u32).collect();
    order.sort_unstable_by_key(|&k| ips[k as usize]);
    let mut remap = vec![0u32; 2 * ips.len()];
    for (rank, &k) in order.iter().enumerate() {
        remap[2 * k as usize] = 2 * rank as u32;
        remap[2 * k as usize + 1] = 2 * rank as u32 + 1;
    }
    for slot in &mut slots {
        *slot = remap[*slot as usize];
    }
    let mut insns = Vec::with_capacity(2 * ips.len());
    for k in 0..ips.len() as u32 {
        insns.push(Insn::new(Op::Cmp {
            ctype: CmpType::Unc,
            rel: CmpRel::Eq,
            pt: Pr::new(1),
            pf: Pr::new(2),
            src1: Gr::new(1),
            src2: Operand::imm(0),
        }));
        // Loop back to the producing compare: gives each static branch a
        // stable, in-range target without inventing control flow the
        // source trace doesn't describe.
        insns.push(Insn::guarded(Pr::new(1), Op::Br { target: 2 * k }));
    }

    let summary = CbpSummary {
        branches: slots.len() as u64 / 2,
        taken: taken_count,
        static_branches: ips.len() as u64,
        ips: order.iter().map(|&k| ips[k as usize]).collect(),
    };
    let buf = TraceBuffer::from_parts(insns, slots, flags, Vec::new(), false);
    Ok((buf, summary))
}

// Byte classes of the CBP tokenizer.
/// Any other ASCII byte: part of a field.
const CBP_TOKEN: u8 = 0;
/// The ASCII bytes `char::is_whitespace` accepts, `\n` aside: tab, VT,
/// FF, CR and space.
const CBP_SPACE: u8 = 1;
/// `\n` or `#`: the line's record text ends here.
const CBP_END: u8 = 2;
/// Non-ASCII: the line goes through [`parse_cbp_line`].
const CBP_WIDE: u8 = 3;

/// The class of every byte value.
const CBP_CLASS: [u8; 256] = {
    let mut class = [CBP_TOKEN; 256];
    let mut b = 0x80;
    while b < 256 {
        class[b] = CBP_WIDE;
        b += 1;
    }
    class[b'\t' as usize] = CBP_SPACE;
    class[0x0b] = CBP_SPACE;
    class[0x0c] = CBP_SPACE;
    class[b'\r' as usize] = CBP_SPACE;
    class[b' ' as usize] = CBP_SPACE;
    class[b'\n' as usize] = CBP_END;
    class[b'#' as usize] = CBP_END;
    class
};

/// Tokenizes the line starting at `start` as bytes. Returns its record
/// (`None` for a blank or comment-only line) and where the next line
/// starts, or `None` when the line is not in the plain form and
/// [`parse_cbp_line`] must decide. On every line it accepts it agrees
/// with [`parse_cbp_line`].
fn scan_cbp_line(bytes: &[u8], start: usize) -> Option<(Option<(u64, bool)>, usize)> {
    let class = |i: usize| bytes.get(i).map_or(CBP_END, |&b| CBP_CLASS[usize::from(b)]);
    let mut i = start;
    while class(i) == CBP_SPACE {
        i += 1;
    }
    let record = if class(i) == CBP_END {
        None
    } else {
        let ip_start = i;
        while class(i) == CBP_TOKEN {
            i += 1;
        }
        let ip = parse_plain_ip(&bytes[ip_start..i])?;
        if class(i) != CBP_SPACE {
            return None;
        }
        while class(i) == CBP_SPACE {
            i += 1;
        }
        let taken = match bytes.get(i)? {
            b'1' | b'T' | b't' => true,
            b'0' | b'N' | b'n' => false,
            _ => return None,
        };
        i += 1;
        while class(i) == CBP_SPACE {
            i += 1;
        }
        if class(i) != CBP_END {
            return None;
        }
        Some((ip, taken))
    };
    // `i` sits on `\n`, on a `#` whose comment runs to the line's end, or
    // past the input.
    while i < bytes.len() && bytes[i] != b'\n' {
        i += 1;
    }
    Some((record, i + 1))
}

/// An IP in the plain form: `0x`/`0X` and 1–16 hex digits, or 1–19
/// decimal digits, so it cannot overflow. Anything else is `None`.
fn parse_plain_ip(token: &[u8]) -> Option<u64> {
    let (digits, radix, max_len) = match token {
        [b'0', b'x' | b'X', hex @ ..] => (hex, 16, 16),
        _ => (token, 10, 19),
    };
    if digits.is_empty() || digits.len() > max_len {
        return None;
    }
    digits.iter().try_fold(0u64, |value, &b| {
        let digit = char::from(b).to_digit(radix)?;
        Some(value * u64::from(radix) + u64::from(digit))
    })
}

/// Parses one line of a CBP log by the `&str` rules: the text before the
/// first `#`, trimmed, must be `<ip> <taken>` split by Unicode
/// whitespace, and the IP may carry a `+` (after the `0x` of a hex IP).
/// Returns `None` for a blank or comment-only line.
/// `lineno` (1-based) names the line in the error.
fn parse_cbp_line(raw: &str, lineno: usize) -> Result<Option<(u64, bool)>, TraceFileError> {
    let line = raw.split('#').next().unwrap_or("").trim();
    if line.is_empty() {
        return Ok(None);
    }
    let mut fields = line.split_whitespace();
    let (Some(ip), Some(taken), None) = (fields.next(), fields.next(), fields.next()) else {
        return Err(TraceFileError::Corrupt(format!(
            "line {lineno}: expected `<ip> <taken>`, got `{line}`"
        )));
    };
    let ip = if let Some(hex) = ip.strip_prefix("0x").or_else(|| ip.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        ip.parse()
    }
    .map_err(|_| TraceFileError::Corrupt(format!("line {lineno}: bad branch address `{ip}`")))?;
    let taken = match taken {
        "1" | "T" | "t" => true,
        "0" | "N" | "n" => false,
        other => {
            return Err(TraceFileError::Corrupt(format!(
                "line {lineno}: bad taken flag `{other}` (want 1/0/T/N)"
            )))
        }
    };
    Ok(Some((ip, taken)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::exec::ExecRecord;
    use crate::trace::{kitchen_sink_program, TraceCursor};
    use crate::InsnSource;
    use std::sync::Arc;

    fn sink_trace() -> TraceBuffer {
        TraceBuffer::capture(&kitchen_sink_program(), u64::MAX).unwrap()
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let buf = sink_trace();
        let bytes = encode(&buf, "kitchen-sink", "unit test", false);
        let (decoded, meta) = decode(&bytes).unwrap();

        assert_eq!(meta.name, "kitchen-sink");
        assert_eq!(meta.note, "unit test");
        assert!(meta.halted);
        assert!(!meta.branches_only);
        assert_eq!(meta.records, buf.len());
        assert_eq!(meta.static_insns, buf.code().len() as u64);

        assert_eq!(decoded.halted(), buf.halted());
        assert_eq!(decoded.code(), buf.code());
        assert_eq!(
            decoded.iter().collect::<Vec<_>>(),
            buf.iter().collect::<Vec<_>>()
        );
        assert_eq!(content_hash(&decoded), content_hash(&buf));

        // Re-encoding the decoded buffer reproduces the file exactly.
        assert_eq!(encode(&decoded, "kitchen-sink", "unit test", false), bytes);
    }

    #[test]
    fn peek_meta_reads_a_prefix() {
        let buf = sink_trace();
        let bytes = encode(&buf, "sink", "prefix", false);
        let full = peek_meta(&bytes).unwrap();
        // The header is a small prefix; chop the body off entirely.
        let prefix = &bytes[..64.min(bytes.len())];
        assert_eq!(peek_meta(prefix).unwrap(), full);
        assert_eq!(full.records, buf.len());
    }

    #[test]
    fn name_and_note_do_not_change_content_identity() {
        let buf = sink_trace();
        let a = decode(&encode(&buf, "a", "", false)).unwrap().0;
        let b = decode(&encode(&buf, "b", "different note", false))
            .unwrap()
            .0;
        assert_eq!(content_hash(&a), content_hash(&b));
    }

    #[test]
    fn every_truncation_is_rejected_without_panicking() {
        let bytes = encode(&sink_trace(), "sink", "", false);
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, TraceFileError::Truncated | TraceFileError::BadMagic),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&sink_trace(), "sink", "", false);
        bytes[0] ^= 0xff;
        assert_eq!(decode(&bytes).unwrap_err(), TraceFileError::BadMagic);
        assert_eq!(peek_meta(&bytes).unwrap_err(), TraceFileError::BadMagic);
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = encode(&sink_trace(), "sink", "", false);
        bytes[8..12].copy_from_slice(&(VERSION + 1).to_le_bytes());
        assert_eq!(
            decode(&bytes).unwrap_err(),
            TraceFileError::UnsupportedVersion(VERSION + 1)
        );
    }

    #[test]
    fn corrupted_body_fails_the_checksum() {
        let bytes = encode(&sink_trace(), "sink", "", false);
        // Flip one bit in every body byte position in turn; each flip
        // must be caught by the checksum (never a panic, never Ok).
        let body_start = bytes.len() - 9;
        let mut copy = bytes.clone();
        copy[body_start] ^= 1;
        assert!(matches!(
            decode(&copy).unwrap_err(),
            TraceFileError::ChecksumMismatch { .. }
        ));
        // And a flipped checksum byte is also a mismatch.
        let mut copy = bytes.clone();
        let last = copy.len() - 1;
        copy[last] ^= 1;
        assert!(matches!(
            decode(&copy).unwrap_err(),
            TraceFileError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode(&sink_trace(), "sink", "", false);
        bytes.push(0);
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            TraceFileError::Corrupt(_)
        ));
    }

    #[test]
    fn page_straddling_addresses_round_trip() {
        // Stores walking backwards and forwards across a 4 KiB page
        // boundary: deltas are negative, positive and large.
        let mut a = Asm::new();
        a.init_gr(crate::Gr::new(1), 0xfff0);
        a.movi(crate::Gr::new(2), 7);
        a.st(crate::Gr::new(2), crate::Gr::new(1), 0); // 0xfff0
        a.st(crate::Gr::new(2), crate::Gr::new(1), 0x20); // 0x10010 (next page)
        a.st(crate::Gr::new(2), crate::Gr::new(1), 8); // 0xfff8 (back)
        a.ld(crate::Gr::new(3), crate::Gr::new(1), 0x20); // 0x10010
        a.halt();
        let prog = a.assemble().unwrap();
        let buf = TraceBuffer::capture(&prog, u64::MAX).unwrap();
        let (decoded, _) = decode(&encode(&buf, "straddle", "", false)).unwrap();
        let addrs: Vec<u64> = decoded
            .iter()
            .filter_map(|r| match r.info {
                ExecInfo::Mem { addr } => Some(addr),
                _ => None,
            })
            .collect();
        assert_eq!(addrs, vec![0xfff0, 0x10010, 0xfff8, 0x10010]);
        assert_eq!(
            decoded.iter().collect::<Vec<_>>(),
            buf.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn cbp_import_synthesizes_a_replayable_stream() {
        let text = "\
# ip taken
0x400100 T
0x400200 N
0x400100 t
4194560 1   # same as 0x400200, decimal
0x400100 0
";
        let (buf, summary) = import_cbp(text).unwrap();
        assert_eq!(
            summary,
            CbpSummary {
                branches: 5,
                taken: 3,
                static_branches: 2,
                ips: vec![0x400100, 0x400200],
            }
        );
        // Two records (compare + branch) per input branch.
        assert_eq!(buf.len(), 10);
        assert_eq!(buf.code().len(), 4);
        assert!(!buf.halted());

        let recs: Vec<ExecRecord> = buf.iter().collect();
        // First input branch: ip 0x400100 -> static pair 0 (lowest IP).
        assert_eq!(recs[0].slot, 0);
        assert_eq!(
            recs[0].info,
            ExecInfo::Cmp {
                cond: true,
                pt_write: Some(true),
                pf_write: Some(false),
            }
        );
        assert_eq!(recs[1].slot, 1);
        assert!(recs[1].qp);
        assert_eq!(
            recs[1].info,
            ExecInfo::Br {
                taken: true,
                target: 0
            }
        );
        // Second input branch: ip 0x400200 -> static pair 1, not taken.
        assert_eq!(recs[2].slot, 2);
        assert_eq!(recs[3].slot, 3);
        assert!(!recs[3].qp);
        assert_eq!(
            recs[3].info,
            ExecInfo::Br {
                taken: false,
                target: 2
            }
        );

        // A cursor replays the whole stream; the end is not a halt.
        let mut cur = TraceCursor::new(Arc::new(buf.clone()));
        let mut n = 0;
        while cur.next_record().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
        assert!(!cur.ended_halted());

        // And the import round-trips through the file format.
        let bytes = encode(&buf, "cbp", "", true);
        let (decoded, meta) = decode(&bytes).unwrap();
        assert!(meta.branches_only);
        assert_eq!(decoded.iter().collect::<Vec<_>>(), recs);
    }

    #[test]
    fn cbp_import_rejects_malformed_lines() {
        for (text, needle) in [
            ("", "no branch records"),
            ("0x10", "expected `<ip> <taken>`"),
            ("0x10 T extra", "expected `<ip> <taken>`"),
            ("zzz T", "bad branch address"),
            ("0x10 maybe", "bad taken flag"),
        ] {
            let err = import_cbp(text).unwrap_err();
            let TraceFileError::Corrupt(msg) = &err else {
                panic!("expected Corrupt, got {err:?}");
            };
            assert!(msg.contains(needle), "`{msg}` missing `{needle}`");
        }
    }

    #[test]
    fn import_is_deterministic() {
        let text = "0x9 T\n0x5 N\n0x9 N\n";
        let (a, _) = import_cbp(text).unwrap();
        let (b, _) = import_cbp(text).unwrap();
        assert_eq!(content_hash(&a), content_hash(&b));
        assert_eq!(encode(&a, "x", "", true), encode(&b, "x", "", true));
        // Lowest IP gets the first static pair regardless of stream order.
        assert_eq!(a.iter().next().unwrap().slot, 2, "0x9 maps to pair 1");
    }
}
