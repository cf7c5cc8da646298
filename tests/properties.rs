//! Property-based tests over the core invariants: arbitrary stencil
//! shapes, grids, tiles, thread counts and process grids.

use msc::comm::{CartDecomp, Region};
use msc::core::catalog::{points_of, Shape};
use msc::core::schedule::{ExecPlan, Schedule};
use msc::prelude::*;
use proptest::prelude::*;

/// Strategy: a random small stencil program (star or box, 2D or 3D).
fn arb_program() -> impl Strategy<Value = StencilProgram> {
    (2usize..=3, 1usize..=3, prop::bool::ANY, 1usize..=4).prop_flat_map(
        |(ndim, radius, boxed, steps)| {
            let grid_dim = 4 * radius + 4..=4 * radius + 14;
            prop::collection::vec(grid_dim, ndim).prop_map(move |grid| {
                let kernel = if boxed && ndim == 2 {
                    Kernel::boxed("k", ndim, radius, 0.5).unwrap()
                } else {
                    Kernel::star_normalized("k", ndim, radius)
                };
                let mut b = StencilProgram::builder("prop").kernel(kernel).combine(&[
                    (1, 0.7, "k"),
                    (2, 0.3, "k"),
                ]);
                b = match ndim {
                    2 => b.grid_2d("B", DType::F64, [grid[0], grid[1]], radius, 3),
                    _ => b.grid_3d("B", DType::F64, [grid[0], grid[1], grid[2]], radius, 3),
                };
                b.timesteps(steps).build().unwrap()
            })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tiled parallel execution is bit-identical to the serial reference
    /// for any tile shape and thread count.
    #[test]
    fn tiled_equals_reference(
        program in arb_program(),
        tile_frac in 1usize..=3,
        threads in 1usize..=6,
        seed in 0u64..1000,
    ) {
        let grid = program.grid.shape.clone();
        let init: Grid<f64> = Grid::random(&grid, &program.grid.halo, seed);
        let (reference, _) = run_program(&program, &Executor::Reference, &init).unwrap();
        let mut s = Schedule::default();
        let tile: Vec<usize> = grid.iter().map(|&g| (g / (tile_frac + 1)).max(1)).collect();
        s.tile(&tile);
        s.parallel("xo", threads);
        let plan = ExecPlan::lower(&s, grid.len(), &grid).unwrap();
        let (tiled, _) = run_program(&program, &Executor::Tiled(plan), &init).unwrap();
        prop_assert_eq!(reference.as_slice(), tiled.as_slice());
    }

    /// SPM-staged execution is bit-identical too, and its DMA get traffic
    /// is exactly (terms × tile+halo volume) summed over tiles.
    #[test]
    fn spm_equals_reference(
        program in arb_program(),
        seed in 0u64..1000,
    ) {
        let grid = program.grid.shape.clone();
        let init: Grid<f64> = Grid::random(&grid, &program.grid.halo, seed);
        let (reference, _) = run_program(&program, &Executor::Reference, &init).unwrap();
        let mut s = Schedule::default();
        let tile: Vec<usize> = grid.iter().map(|&g| (g / 2).max(1)).collect();
        s.tile(&tile);
        s.parallel("xo", 3);
        let plan = ExecPlan::lower(&s, grid.len(), &grid).unwrap();
        let (spm, _) = run_program(
            &program,
            &Executor::Spm { plan, spm_capacity: 1 << 24 },
            &init,
        ).unwrap();
        prop_assert_eq!(reference.as_slice(), spm.as_slice());
    }

    /// The tile set of any legal plan partitions the grid exactly.
    #[test]
    fn tiles_partition_grid(
        ndim in 2usize..=3,
        extent in 4usize..=20,
        tile in 1usize..=7,
    ) {
        let grid = vec![extent; ndim];
        let mut s = Schedule::default();
        s.tile(&vec![tile.min(extent); ndim]);
        let plan = ExecPlan::lower(&s, ndim, &grid).unwrap();
        let tiles = plan.tiles();
        let covered: usize = tiles.iter().map(|t| t.elems()).sum();
        prop_assert_eq!(covered, extent.pow(ndim as u32));
        // Disjointness via coordinate marking.
        let strides: Vec<usize> = (0..ndim)
            .map(|d| grid[d + 1..].iter().product::<usize>())
            .collect();
        let mut seen = vec![false; covered];
        for t in &tiles {
            let mut pos = t.origin.clone();
            loop {
                let lin: usize = pos.iter().zip(&strides).map(|(&p, &s)| p * s).sum();
                prop_assert!(!seen[lin]);
                seen[lin] = true;
                let mut d = ndim;
                let mut done = true;
                while d > 0 {
                    d -= 1;
                    pos[d] += 1;
                    if pos[d] < t.origin[d] + t.extent[d] {
                        done = false;
                        break;
                    }
                    pos[d] = t.origin[d];
                }
                if done {
                    break;
                }
            }
        }
    }

    /// Region pack/unpack round-trips for arbitrary in-bounds regions.
    #[test]
    fn pack_unpack_roundtrip(
        shape in prop::collection::vec(3usize..=10, 2..=3),
        seed in 0u64..100,
    ) {
        let halo = vec![1; shape.len()];
        let g: Grid<f64> = Grid::random(&shape, &halo, seed);
        // A region strictly inside the padded buffer.
        let start: Vec<usize> = shape.iter().map(|_| 1usize).collect();
        let extent: Vec<usize> = shape.iter().map(|&s| s.min(4)).collect();
        let region = Region::new(start, extent);
        let packed = g.pack(&region);
        let mut g2: Grid<f64> = Grid::zeros(&shape, &halo);
        g2.unpack(&region, &packed);
        prop_assert_eq!(g2.pack(&region), packed);
    }

    /// Cartesian decomposition covers the global grid without overlap.
    #[test]
    fn decomposition_partitions_domain(
        px in 1usize..=3,
        py in 1usize..=3,
        mult in 2usize..=4,
    ) {
        let global = vec![px * mult * 2, py * mult * 3];
        let d = CartDecomp::new(&global, &[px, py], &[1, 1]).unwrap();
        let sub = d.sub_extent();
        let total: usize = d.n_ranks() * sub.iter().product::<usize>();
        prop_assert_eq!(total, global.iter().product::<usize>());
        // Origins tile the domain.
        let mut seen = std::collections::HashSet::new();
        for r in 0..d.n_ranks() {
            prop_assert!(seen.insert(d.origin_of(r)));
        }
    }

    /// Star/box point-count formulas match the generated kernels.
    #[test]
    fn shape_point_counts(ndim in 2usize..=3, radius in 1usize..=4) {
        let star = Kernel::star_normalized("s", ndim, radius);
        prop_assert_eq!(star.points(), points_of(ndim, radius, Shape::Star));
        if ndim == 2 {
            let boxed = Kernel::boxed("b", ndim, radius, 0.5).unwrap();
            prop_assert_eq!(boxed.points(), points_of(ndim, radius, Shape::Box));
        }
    }

    /// The `.msc` parser never panics: arbitrary garbage and randomly
    /// mutated valid programs must produce `Ok` or a diagnostic `Err`,
    /// never a crash.
    #[test]
    fn parser_never_panics(
        garbage in "[ -~\\n]{0,200}",
        cut in 0usize..400,
        flip in 0usize..400,
    ) {
        use msc::core::parse::parse;
        let _ = parse(&garbage);
        let _ = parse("");
        // Mutate a valid program: truncate at a random point and flip one
        // byte to another printable character.
        let valid = "stencil s {\n  grid B: f64[16, 16] halo 1 window 3;\n  kernel k = 0.5*B[0,0] + 0.5*B[1,0];\n  combine r[t] = 0.6*k[t-1] + 0.4*k[t-2];\n  schedule { tile 4 8; parallel xo 2; }\n  run 3;\n}\n";
        let mut bytes: Vec<u8> = valid.bytes().collect();
        bytes.truncate(cut.min(bytes.len()));
        if !bytes.is_empty() {
            let i = flip % bytes.len();
            bytes[i] = b' ' + ((bytes[i].wrapping_add(13)) % 94);
        }
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        let _ = parse(&mutated);
    }

    /// The message-passing runtime delivers arbitrary tag/order storms
    /// correctly: every rank sends a random multiset of tagged values to
    /// every other rank, receives them in a different random order, and
    /// totals must match.
    #[test]
    fn runtime_survives_message_storms(
        n_ranks in 2usize..=5,
        n_msgs in 1usize..=8,
        seed in 0u64..1000,
    ) {
        use msc::comm::{RankCtx, World};
        use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
        let totals: Vec<f64> = World::run(n_ranks, move |mut ctx: RankCtx<f64>| {
            // Deterministic per-rank payloads: value = src*1000 + tag.
            for dst in 0..ctx.n_ranks {
                if dst == ctx.rank {
                    continue;
                }
                for tag in 0..n_msgs as u64 {
                    let v = (ctx.rank * 1000) as f64 + tag as f64;
                    ctx.isend(dst, tag, vec![v]).unwrap();
                }
            }
            // Receive in a rank-specific shuffled order.
            let mut order: Vec<(usize, u64)> = (0..ctx.n_ranks)
                .filter(|&s| s != ctx.rank)
                .flat_map(|s| (0..n_msgs as u64).map(move |t| (s, t)))
                .collect();
            let mut rng = StdRng::seed_from_u64(seed ^ ctx.rank as u64);
            order.shuffle(&mut rng);
            let mut sum = 0.0;
            for (src, tag) in order {
                let req = ctx.irecv(src, tag);
                let v = ctx.wait(req).unwrap()[0];
                // Payload integrity, not just delivery.
                assert_eq!(v, (src * 1000) as f64 + tag as f64);
                sum += v;
            }
            sum
        });
        for (rank, &total) in totals.iter().enumerate() {
            let expect: f64 = (0..n_ranks)
                .filter(|&s| s != rank)
                .flat_map(|s| (0..n_msgs as u64).map(move |t| (s * 1000) as f64 + t as f64))
                .sum();
            prop_assert_eq!(total, expect);
        }
    }

    /// A convex-combination stencil keeps any [0,1]-valued field in
    /// [0,1] for all time (max principle).
    #[test]
    fn convex_stencils_respect_max_principle(
        program in arb_program(),
        seed in 0u64..1000,
    ) {
        let init: Grid<f64> =
            Grid::random(&program.grid.shape, &program.grid.halo, seed);
        let (out, _) = run_program(&program, &Executor::Reference, &init).unwrap();
        let mut ok = true;
        out.for_each_interior(|pos| {
            let v = out.get(pos);
            if !(-1e-12..=1.0 + 1e-12).contains(&v) {
                ok = false;
            }
        });
        prop_assert!(ok);
    }
}
