//! Standalone layer numbers on a workload's own recorded inputs, timed
//! through public functions only, each after an untimed warm-up pass.

use std::hint::black_box;
use std::time::Instant;

use cb_mc::{SearchConfig, Searcher};
use cb_model::{
    Decode, Encode, FrameBuffer, GlobalState, PropertySet, Protocol, WireFrame, MAX_FRAME_LEN,
};
use cb_snapshot::{DeltaDecoder, DeltaEncoder, StateDelta};

use crate::util::median;

/// Timed passes per measurement; the median pass is reported.
const PASSES: usize = 5;

/// Delta-codec numbers for one node's stream.
#[derive(Default)]
pub struct Codec {
    pub encode_us: f64,
    pub decode_us: f64,
    pub shipped_bytes: u64,
    pub raw_bytes: u64,
    pub states: u64,
}

/// Encodes the whole stream with a fresh [`DeltaEncoder`] and decodes the
/// deltas with a fresh [`DeltaDecoder`], as the node and the checker do.
pub fn delta_codec<P: Protocol>(states: &[GlobalState<P>]) -> Codec {
    let encode_all = || {
        let mut enc = DeltaEncoder::new();
        let deltas: Vec<StateDelta> = states.iter().map(|s| enc.encode_state(s)).collect();
        (enc, deltas)
    };
    let decode_all = |deltas: &[StateDelta]| {
        let mut dec = DeltaDecoder::new();
        for d in deltas {
            let gs = dec
                .decode_state::<P>(d)
                .expect("a fresh decoder follows a fresh encoder's lineage");
            black_box(gs);
        }
    };
    let (enc, deltas) = encode_all();
    decode_all(&deltas);
    let n = states.len().max(1) as f64;
    let mut enc_t = Vec::new();
    let mut dec_t = Vec::new();
    for _ in 0..PASSES {
        let t0 = Instant::now();
        let (_, d) = {
            let _s = cb_obs::span("snapshot.encode_pass", "bench");
            black_box(encode_all())
        };
        enc_t.push(t0.elapsed().as_secs_f64() * 1e6 / n);
        let t0 = Instant::now();
        {
            let _s = cb_obs::span("snapshot.decode_pass", "bench");
            decode_all(black_box(&d));
        }
        dec_t.push(t0.elapsed().as_secs_f64() * 1e6 / n);
    }
    // The decoded states must be the recorded ones.
    let mut dec = DeltaDecoder::new();
    for (d, s) in deltas.iter().zip(states) {
        let back = dec.decode_state::<P>(d).expect("decode");
        assert_eq!(back.state_hash(), s.state_hash(), "delta round trip");
    }
    Codec {
        encode_us: median(&enc_t),
        decode_us: median(&dec_t),
        shipped_bytes: enc.stats.shipped_bytes,
        raw_bytes: enc.stats.raw_bytes,
        states: enc.stats.states,
    }
}

/// `WireFrame` encode + decode and `FrameBuffer` reassembly throughput on
/// real frames, in MB/s of frame payload. The byte stream is fed to the
/// reassembler in 4 KiB reads, as the checker's socket loop does.
pub fn frame_mb_s(frames: &[Vec<u8>]) -> f64 {
    if frames.is_empty() {
        return 0.0;
    }
    let parsed: Vec<WireFrame> = frames
        .iter()
        .map(|f| WireFrame::from_bytes(f).expect("recorded frames parse"))
        .collect();
    let total: usize = frames.iter().map(Vec::len).sum();
    let pass = || {
        let mut wire = Vec::with_capacity(total + 4 * frames.len());
        for f in &parsed {
            cb_model::push_frame(&mut wire, &f.to_bytes());
        }
        let mut fb = FrameBuffer::new(MAX_FRAME_LEN);
        let mut got = 0usize;
        for chunk in wire.chunks(4096) {
            fb.feed(chunk);
            while let Ok(Some(payload)) = fb.next_frame() {
                let frame = WireFrame::from_bytes(&payload).expect("reassembled frame parses");
                got += frame.body.len();
            }
        }
        black_box(got)
    };
    pass();
    let mut rates = Vec::new();
    for _ in 0..PASSES {
        let _s = cb_obs::span("model.frame_pass", "bench");
        let t0 = Instant::now();
        pass();
        rates.push(total as f64 / 1e6 / t0.elapsed().as_secs_f64());
    }
    median(&rates)
}

/// Sequential search numbers over a sample of recorded states.
#[derive(Default)]
pub struct Search {
    pub states_per_s: f64,
    pub states_per_round: f64,
    pub bytes_per_state: f64,
    /// States visited by each search, in sample order (a count that must
    /// repeat exactly).
    pub visited: Vec<usize>,
}

/// Runs `Searcher::run` over `sample` with the workload's config.
pub fn search<P: Protocol>(
    proto: &P,
    props: &PropertySet<P>,
    config: &SearchConfig,
    sample: &[&GlobalState<P>],
) -> Search {
    let searcher = Searcher::new(proto, props, config.clone());
    let run_all = || {
        let mut visited = Vec::new();
        let mut bytes = 0usize;
        for s in sample {
            let out = searcher.run(s);
            visited.push(out.stats.states_visited);
            bytes += out.stats.tree_bytes;
        }
        (visited, bytes)
    };
    run_all();
    let mut rates = Vec::new();
    let mut last = (Vec::new(), 0);
    for _ in 0..3 {
        let _s = cb_obs::span("mc.search", "bench");
        let t0 = Instant::now();
        last = run_all();
        let visited: usize = last.0.iter().sum();
        rates.push(visited as f64 / t0.elapsed().as_secs_f64());
    }
    let (visited, bytes) = last;
    let total: usize = visited.iter().sum();
    Search {
        states_per_s: median(&rates),
        states_per_round: total as f64 / visited.len().max(1) as f64,
        bytes_per_state: bytes as f64 / total.max(1) as f64,
        visited,
    }
}
