//! Counting-allocator proof of the zero-allocation solve path.
//!
//! The multisplitting drivers run the same kernel sequence every outer
//! iteration: dependency fill → `BLoc` assembly (`local_rhs_into`) →
//! in-place triangular solve (`solve_into`).  This test installs a counting
//! global allocator and asserts that, once the caller-retained workspaces are
//! warm, each of those kernels — for every solver kind — performs **zero**
//! heap allocations.  (Message payloads handed to the transport are the
//! communication cost and are deliberately out of scope.)
//!
//! The test runs with `harness = false` (a plain `main`) so the process
//! contains nothing but the kernels under measurement — the libtest harness
//! would otherwise allocate from its own bookkeeping threads concurrently
//! with the measured sections and trip the process-global counter.

use multisplitting::core::runtime::{IterationWorkspace, RankEngine};
use multisplitting::core::{Decomposition, WeightingScheme};
use multisplitting::dense::{BandLu, BandMatrix, DenseLu};
use multisplitting::direct::{SolveScratch, SolverKind};
use multisplitting::sparse::generators::{self, DiagDominantConfig};
use multisplitting::sparse::{BandPartition, LocalBlocks};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// The largest single request (bytes) seen since it was last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        LARGEST.fetch_max(layout.size(), Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        LARGEST.fetch_max(new_size, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        LARGEST.fetch_max(layout.size(), Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` once to warm caller-retained buffers, then asserts that `reps`
/// further calls perform no allocation at all.
fn assert_zero_alloc(label: &str, reps: usize, mut f: impl FnMut()) {
    f();
    let before = ALLOCATIONS.load(Relaxed);
    for _ in 0..reps {
        f();
    }
    let allocated = ALLOCATIONS.load(Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "{label}: {allocated} allocations across {reps} warm calls"
    );
}

fn main() {
    let n = 120;
    // Narrow half-bandwidth so the band solver accepts the matrix too.
    let a = generators::diag_dominant(&DiagDominantConfig {
        n,
        seed: 7,
        half_bandwidth: 10,
        ..Default::default()
    });
    let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 11) as f64) - 5.0);

    // --- In-place solves through the Factorization trait, all kinds. ---
    for kind in SolverKind::all() {
        let factor = kind.build().factorize(&a).expect("factorize");
        let mut x = b.clone();
        let mut scratch = SolveScratch::new();
        assert_zero_alloc(&format!("{kind:?} solve_into"), 50, || {
            x.copy_from_slice(&b);
            factor.solve_into(&mut x, &mut scratch).expect("solve_into");
        });
    }

    // --- Sparse matrix-vector kernels. ---
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
    let mut y = vec![0.0; n];
    assert_zero_alloc("spmv_into", 100, || {
        a.spmv_into(&x, &mut y).expect("spmv_into");
    });
    assert_zero_alloc("spmv_sub_into", 100, || {
        a.spmv_sub_into(&x, &mut y).expect("spmv_sub_into");
    });

    // --- BLoc assembly (the per-iteration driver kernel). ---
    let partition = BandPartition::uniform_with_overlap(n, 4, 3).expect("partition");
    let blocks: Vec<LocalBlocks> = (0..4)
        .map(|l| LocalBlocks::extract(&a, &b, &partition, l).expect("extract"))
        .collect();
    let x_global = vec![0.5; n];
    let mut rhs = Vec::new();
    for blk in &blocks {
        assert_zero_alloc(&format!("local_rhs_into part {}", blk.part), 50, || {
            blk.local_rhs_into(&blk.b_sub, &x_global, &mut rhs)
                .expect("local_rhs_into");
        });
    }

    // --- Dense kernels used by the dense fallback solver. ---
    let ad = a.to_dense();
    let lu = DenseLu::factorize(&ad).expect("dense factorize");
    let mut xd = b.clone();
    let mut work = Vec::new();
    assert_zero_alloc("DenseLu::solve_into", 50, || {
        xd.copy_from_slice(&b);
        lu.solve_into(&mut xd, &mut work).expect("dense solve_into");
    });
    let mut yd = vec![0.0; n];
    assert_zero_alloc("DenseMatrix::gemv_into", 50, || {
        ad.gemv_into(&x, &mut yd).expect("gemv_into");
    });

    // --- Band kernels (fully in place, not even a scratch). ---
    let mut band = BandMatrix::zeros(n, 2, 2);
    for i in 0..n {
        band.set(i, i, 8.0);
        for d in 1..=2usize {
            if i >= d {
                band.set(i, i - d, -1.0);
            }
            if i + d < n {
                band.set(i, i + d, -1.0);
            }
        }
    }
    let blu = BandLu::factorize(&band).expect("band factorize");
    let mut xb = b.clone();
    assert_zero_alloc("BandLu::solve_into", 50, || {
        xb.copy_from_slice(&b);
        blu.solve_into(&mut xb).expect("band solve_into");
    });

    // --- The unified RankEngine step (the adapters' per-iteration body). ---
    // A warm engine step is dependency fill → BLoc assembly → in-place
    // triangular solve → increment norm, all on workspace-retained buffers:
    // zero allocations.  (Outbound message payloads are the communication
    // cost and are out of scope, as above; a single-band system sends
    // nothing.)
    {
        let d = Decomposition::uniform(&a, &b, 1, 0).expect("decomposition");
        let partition = d.partition().clone();
        let (_, blocks) = d.into_blocks();
        let solver = SolverKind::SparseLu.build();
        let factor = solver.factorize(&blocks[0].a_sub).expect("factorize");
        let mut ws = IterationWorkspace::new();
        let mut engine = RankEngine::single(
            &partition,
            &blocks[0],
            &blocks[0].b_sub,
            factor.as_ref(),
            WeightingScheme::OwnerTakes,
            &mut ws,
        );
        assert_zero_alloc("RankEngine::step (single)", 50, || {
            engine.step().expect("engine step");
        });
    }

    // --- The unchanged-halo skip on a coupled band. ---
    // Each cycle ingests a fresh slice and steps (assembly + solve), then
    // steps again on the same halo (the skip: no assembly, no solve).  Both
    // run on workspace-retained buffers: zero allocations.  Inbound messages
    // are pre-generated so only ingest + step are measured.
    {
        use multisplitting::comm::Message;
        let a = generators::convection_diffusion(&generators::ConvectionDiffusionConfig {
            k: 16,
            ..Default::default()
        });
        let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 7) as f64) - 3.0);
        let d = Decomposition::uniform(&a, &b, 2, 0).expect("decomposition");
        let partition = d.partition().clone();
        let (_, blocks) = d.into_blocks();
        let solver = SolverKind::SparseLu.build();
        let factor = solver.factorize(&blocks[0].a_sub).expect("factorize");
        let mut ws = IterationWorkspace::new();
        let mut engine = RankEngine::single(
            &partition,
            &blocks[0],
            &blocks[0].b_sub,
            factor.as_ref(),
            WeightingScheme::OwnerTakes,
            &mut ws,
        );
        let offset = blocks[1].offset;
        let peer_size = blocks[1].size;
        let reps = 50;
        let mut msgs: Vec<Message> = (0..(reps as u64 + 1))
            .map(|t| Message::Solution {
                from: 1,
                iteration: t + 1,
                offset,
                values: (0..peer_size)
                    .map(|j| 0.25 + j as f64 * 0.01 + t as f64 * 1e-3)
                    .collect(),
            })
            .rev()
            .collect();
        // Path counters after the warm-up cycle, so the measured cycles can
        // be counted on their own.
        let mut warm = None;
        assert_zero_alloc("RankEngine::step (dense + skip)", reps, || {
            engine.ingest(msgs.pop().expect("pre-generated message"));
            engine.step().expect("dense step");
            engine.step().expect("skip step");
            warm.get_or_insert(engine.path_stats());
        });
        let (warm, stats) = (warm.expect("warm-up cycle ran"), engine.path_stats());
        assert_eq!(
            (
                stats.dense_fallbacks - warm.dense_fallbacks,
                stats.sparse_fastpath_hits - warm.sparse_fastpath_hits
            ),
            (reps as u64, reps as u64),
            "every measured cycle must be one dense step and one skip: {stats:?}"
        );
    }

    // --- Warm Krylov outer iterations (Richardson and FGMRES). ---
    // The acceptance bar of the Krylov layer: once the pooled
    // KrylovWorkspace-style buffers are warm, a complete outer solve — sweep
    // preconditioner applies, matvecs, Gram-Schmidt, Givens updates, basis
    // reconstruction — allocates nothing.  Each closure call below is a full
    // solve at a forced/small depth, so the measured reps cover every outer
    // step of every cycle, not just a single step.
    {
        use multisplitting::core::krylov::{
            fgmres, richardson, FgmresWorkspace, SweepBuffers, SweepPreconditioner,
        };
        use multisplitting::direct::api::Factorization;
        use std::sync::Arc;

        let d = Decomposition::uniform(&a, &b, 3, 1).expect("decomposition");
        let (partition, blocks) = d.into_blocks();
        let solver = SolverKind::SparseLu.build();
        let factors: Vec<Arc<dyn Factorization>> = blocks
            .iter()
            .map(|blk| Arc::from(solver.factorize(&blk.a_sub).expect("factorize")))
            .collect();
        let table = WeightingScheme::OwnerTakes.weight_table(&partition);
        let mut bufs = SweepBuffers::new();
        let mut pc = SweepPreconditioner::new(&partition, &blocks, &factors, &table, 1, &mut bufs);
        let mut x = vec![0.0; n];
        let mut x_prev = vec![0.0; n];
        assert_zero_alloc("richardson warm outer iterations", 20, || {
            // tolerance < 0 forces exactly 8 outer steps per call.
            let stop = richardson(&mut pc, -1.0, 8, &b, &mut x, &mut x_prev).expect("richardson");
            assert_eq!(stop.iterations, 8);
        });

        let mut ws = FgmresWorkspace::new();
        ws.prepare(n, 10);
        assert_zero_alloc("fgmres warm outer iterations", 20, || {
            // A tiny budget over several restart cycles: every Arnoldi step,
            // Givens update and x += Z y reconstruction runs warm.
            let stop = fgmres(&a, &mut pc, 10, 1e-30, 25, &b, &mut x, &mut ws).expect("fgmres");
            assert_eq!(stop.iterations, 25);
        });
    }

    // --- Warm pooled lockstep solve (`PreparedSystem::solve`, synchronous). ---
    // A whole solve allocates its outputs (solution, reports) and each
    // engine's per-solve halo tracker; the outer iterations — the fork-join
    // step of every band on the pool, the in-memory halo copies, the vote —
    // allocate nothing.  So once the pool and the pooled workspace sets are
    // warm, a solve forced to 20 iterations allocates exactly as often as
    // the same solve forced to 2.
    {
        use multisplitting::core::{MultisplittingConfig, PreparedSystem};
        let forced = |max_iterations| {
            let config = MultisplittingConfig {
                parts: 3,
                overlap: 1,
                tolerance: -1.0,
                max_iterations,
                ..Default::default()
            };
            PreparedSystem::prepare(config, &a).expect("prepare")
        };
        let (short, long) = (forced(2), forced(20));
        let allocations = |system: &PreparedSystem, iterations: u64| {
            let before = ALLOCATIONS.load(Relaxed);
            let out = system.solve(&b).expect("pooled solve");
            let allocated = ALLOCATIONS.load(Relaxed) - before;
            assert_eq!(out.stop.iterations, iterations);
            allocated
        };
        for _ in 0..2 {
            allocations(&short, 2);
            allocations(&long, 20);
        }
        let (at_2, at_20) = (allocations(&short, 2), allocations(&long, 20));
        assert_eq!(
            at_20, at_2,
            "warm pooled lockstep solve: {at_20} allocations at 20 iterations, {at_2} at 2"
        );
    }

    // --- Frame codec: one buffer out, one payload vector in. ---
    // A halo frame is encoded straight into the buffer that goes on the
    // socket, and decoded from the borrowed bytes into the message's own
    // values vector: exactly one allocation each way.
    {
        use multisplitting::comm::wire::{decode_frame, encode_frame};
        use multisplitting::comm::Message;
        let halo = Message::Solution {
            from: 1,
            iteration: 9,
            offset: 64,
            values: (0..64).map(|i| i as f64 * 0.25).collect(),
        };
        let count = |f: &mut dyn FnMut()| {
            let before = ALLOCATIONS.load(Relaxed);
            f();
            ALLOCATIONS.load(Relaxed) - before
        };
        let mut frame = Vec::new();
        let encoded = count(&mut || frame = encode_frame(1, &halo));
        assert_eq!(encoded, 1, "encode_frame: {encoded} allocations");
        let mut decoded = None;
        let decodes = count(&mut || decoded = Some(decode_frame(&frame).expect("decode")));
        assert_eq!(decodes, 1, "decode_frame: {decodes} allocations");
        assert_eq!(decoded.map(|(_, msg)| msg), Some(halo));
    }

    // --- Frame reader: the payload buffer grows as bytes arrive. ---
    // A halo frame read from a stream costs one payload buffer and one values
    // vector.  A header that announces the largest payload the wire allows
    // and is then followed by end of stream is a torn frame, and the header
    // alone must not make the reader ask for anything near that size.
    {
        use multisplitting::comm::wire::{
            encode_frame, read_frame, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD,
        };
        use multisplitting::comm::{CommError, Message};
        let halo = Message::Solution {
            from: 1,
            iteration: 9,
            offset: 64,
            values: (0..64).map(|i| i as f64 * 0.25).collect(),
        };
        let frame = encode_frame(1, &halo);
        let before = ALLOCATIONS.load(Relaxed);
        let read = read_frame(&mut frame.as_slice()).expect("read_frame");
        let allocated = ALLOCATIONS.load(Relaxed) - before;
        assert_eq!(allocated, 2, "read_frame: {allocated} allocations");
        assert_eq!(read.1, halo);

        let mut hostile = frame[..FRAME_HEADER_LEN].to_vec();
        hostile[FRAME_HEADER_LEN - 4..].copy_from_slice(&(MAX_FRAME_PAYLOAD as u32).to_le_bytes());
        LARGEST.store(0, Relaxed);
        let torn = read_frame(&mut hostile.as_slice());
        let largest = LARGEST.load(Relaxed);
        assert!(matches!(torn, Err(CommError::Codec(_))), "{torn:?}");
        assert!(
            largest < 1 << 20,
            "a bare header made read_frame request {largest} bytes"
        );
    }

    // Sanity: the counter itself works (an obvious allocation is seen).
    let before = ALLOCATIONS.load(Relaxed);
    let v: Vec<u8> = Vec::with_capacity(1024);
    drop(v);
    assert!(ALLOCATIONS.load(Relaxed) > before, "counter is live");

    println!("zero_alloc: all warm solve-path kernels performed 0 allocations");
}
