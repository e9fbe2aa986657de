//! Integration: traces written to disk stream straight back into the
//! performance model, and every trace decoder survives damaged input.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparc64v::cpu::Core;
use sparc64v::mem::MemorySystem;
use sparc64v::model::{PerformanceModel, SystemConfig};
use sparc64v::trace::io::{TraceReader, TraceWriter};
use sparc64v::trace::{binary, text, TraceStream, VecTrace};
use sparc64v::workloads::{Suite, SuiteKind};
use std::io::Cursor;
use std::panic::AssertUnwindSafe;

#[test]
fn on_disk_traces_drive_the_model_identically() {
    let suite = Suite::preset(SuiteKind::SpecInt95);
    let trace = suite.programs()[1].generate(20_000, 13);

    // Write through the streaming writer.
    let mut cursor = Cursor::new(Vec::new());
    let mut w = TraceWriter::new(&mut cursor).expect("header");
    for rec in trace.iter() {
        w.write(rec).expect("record");
    }
    w.finish().expect("patch count");

    // Read back through the streaming reader and materialize.
    cursor.set_position(0);
    let mut reader = TraceReader::new(&mut cursor).expect("header");
    let mut back = VecTrace::new();
    while let Some(rec) = reader.next_record() {
        back.push(rec);
    }
    assert_eq!(back, trace);

    // Same cycles either way.
    let model = PerformanceModel::new(SystemConfig::sparc64_v());
    let a = model.run_trace(&trace);
    let b = model.run_trace(&back);
    assert_eq!(a.cycles, b.cycles);
}

#[test]
fn model_can_consume_a_reader_stream_directly() {
    let suite = Suite::preset(SuiteKind::SpecFp95);
    let trace = suite.programs()[0].generate(10_000, 13);
    let bytes = sparc64v::trace::binary::encode(&trace);
    let mut reader = TraceReader::new(&bytes[..]).expect("header");
    // A core pulls records straight off the reader, never materializing
    // the trace, and times it exactly as the model times the vector.
    let cfg = SystemConfig::sparc64_v();
    let mut mem = MemorySystem::new(cfg.mem.clone(), 1);
    let mut core = Core::new(cfg.core.clone(), 0);
    core.run(&mut mem, &mut reader);
    let r = PerformanceModel::new(cfg).run_trace(&trace);
    assert_eq!(core.stats().committed.get(), 10_000);
    assert_eq!(core.stats().cycles.get(), r.core_stats[0].cycles.get());
}

/// Mutations per decoder in the fuzz guards below.
const MUTATIONS: usize = 20_000;

/// One seeded mutation of `base`: one to four bit flips, a truncation,
/// or a splice of a random stretch of `donor` over a random stretch of
/// `base`.
fn mutate(rng: &mut StdRng, base: &[u8], donor: &[u8]) -> Vec<u8> {
    let mut out = base.to_vec();
    match rng.gen_range(0..3u32) {
        0 => {
            for _ in 0..rng.gen_range(1..5usize) {
                let i = rng.gen_range(0..out.len());
                out[i] ^= 1 << rng.gen_range(0..8u32);
            }
        }
        1 => out.truncate(rng.gen_range(0..out.len())),
        _ => {
            let from = rng.gen_range(0..donor.len());
            let piece = &donor[from..rng.gen_range(from..=donor.len())];
            let at = rng.gen_range(0..=out.len());
            let end = rng.gen_range(at..=out.len());
            out.splice(at..end, piece.iter().copied());
        }
    }
    out
}

/// Runs `decode` on [`MUTATIONS`] mutations of `base` (spliced with
/// `donor`), failing with the mutation's index if it panics.
fn fuzz(seed: u64, base: &[u8], donor: &[u8], decode: impl Fn(&[u8])) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..MUTATIONS {
        let input = mutate(&mut rng, base, donor);
        if std::panic::catch_unwind(AssertUnwindSafe(|| decode(&input))).is_err() {
            panic!("decoder panicked on mutation {case} (seed {seed}): {input:?}");
        }
    }
}

/// A short binary trace and a donor trace from another program.
fn fuzz_traces() -> (VecTrace, VecTrace) {
    let int = Suite::preset(SuiteKind::SpecInt95).programs()[0].generate(48, 3);
    let fp = Suite::preset(SuiteKind::SpecFp95).programs()[1].generate(48, 4);
    (int, fp)
}

#[test]
fn binary_decode_survives_mutation() {
    let (base, donor) = fuzz_traces();
    let (base, donor) = (binary::encode(&base), binary::encode(&donor));
    assert_eq!(binary::decode(&base).expect("clean trace").len(), 48);
    fuzz(1, &base, &donor, |bytes| {
        if let Ok(t) = binary::decode(bytes) {
            // Every record costs at least 14 bytes past the 16-byte header.
            assert!(t.len() <= bytes.len().saturating_sub(16) / 14);
        }
    });
}

#[test]
fn record_decoder_survives_mutation() {
    let (base, donor) = fuzz_traces();
    let (base, donor) = (binary::encode(&base), binary::encode(&donor));
    fuzz(2, &base[16..], &donor[16..], |mut bytes| {
        while !bytes.is_empty() {
            let before = bytes.len();
            if binary::decode_record_from(&mut bytes).is_err() {
                break;
            }
            assert!(bytes.len() + 14 <= before, "a record consumes its bytes");
        }
    });
}

#[test]
fn text_parser_survives_mutation() {
    let (base, donor) = fuzz_traces();
    let (base, donor) = (text::to_text(&base), text::to_text(&donor));
    assert_eq!(text::parse_text(&base).expect("clean trace").len(), 48);
    fuzz(3, base.as_bytes(), donor.as_bytes(), |bytes| {
        let _ = text::parse_text(&String::from_utf8_lossy(bytes));
    });
}

#[test]
fn streaming_reader_survives_mutation() {
    let (base, donor) = fuzz_traces();
    let (base, donor) = (binary::encode(&base), binary::encode(&donor));
    fuzz(4, &base, &donor, |bytes| {
        let Ok(mut reader) = TraceReader::new(bytes) else {
            return;
        };
        let mut records = 0;
        while reader.next_record().is_some() {
            records += 1;
            assert!(
                records * 14 <= bytes.len(),
                "the reader must stop at the end of its input"
            );
        }
    });
}
