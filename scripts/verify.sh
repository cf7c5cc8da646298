#!/usr/bin/env bash
# Full verification, locally and in CI: .github/workflows/ci.yml runs this
# script and nothing else blocking (rustfmt and Miri are its only other jobs).
# The workspace builds fully offline (see DESIGN.md §6) — every external
# dependency is a vendored shim, so --offline is load-bearing, not an
# optimization.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== names that must not come back =="
# One way in per layer (DESIGN.md §9.1, §13.4): the legacy distributed
# doors, the boundary-only run_program variant and the two process-global
# run knobs were deleted, not deprecated; so were the two halo libraries
# the halo plan replaced (DESIGN.md §7) and the crossbeam shim. This grep
# only sees the workspace: benchmark/ is its own workspace, so `bash
# benchmark/run.sh --smoke` below is the only gate that proves an API
# purge left the benchmark buildable.
if grep -rnE 'run_distributed_(bc|with|exec|opts|until_converged)|run_program_bc|set_exec_tier|set_persistent|HaloBackend|FullNeighborExchange|HaloExchange|PendingInner|crossbeam' crates src tests examples Cargo.toml; then
  echo "a deleted entry point, run knob, halo library or shim is back" >&2
  exit 1
fi
# One account per run (DESIGN.md §6a, §7): msc-comm keeps what its one
# driver calls — no collectives, one wait, no reliability switch — and
# nothing times into the hub beside an account. The comm grep is scoped to
# crates/comm: msc-trace's sampler uses std's Condvar::wait_timeout.
if grep -rnE 'collectives|allreduce|wait_any|wait_all|try_wait|wait_timeout|reliable: (None|Some|Option)' crates/comm ||
  grep -rnE 'timed_hist|TimedScope|record_max' crates src tests examples; then
  echo "a deleted MPI call, the reliability knob or a timed hub write is back" >&2
  exit 1
fi
# A reliable channel (DESIGN.md §7): msc-comm's runtime moves each frame
# once; the ack/resend protocol, its tunables, the frame checksum, the
# corruption injector and the delivery history were deleted.
if grep -rnE 'ReliabilityConfig|Body::Ack|Body::Resend|fn checksum|flip_bit|Delivered' crates/comm/src; then
  echo "the message-fault layer is back in msc-comm" >&2
  exit 1
fi
# msc-comm feeds the hub only through RankCtx::publish; msc-exec only
# through the step's and the temporal block's publish, plus the counts no
# account carries (the worker pool's and compile time).
if grep -rnE 'msc_trace::record|record_hist' crates/comm/src ||
  grep -rnE 'msc_trace::record\(' crates/exec/src |
  grep -vE 'Counter::(PoolSteals|PoolParks|PoolUnparks|BarrierWaitNanos|VmCompileNanos)'; then
  echo "a count is written to the hub beside the account that holds it" >&2
  exit 1
fi
test "$(cat crates/exec/src/*.rs | grep -c 'msc_trace::record_set(')" = 2

# One time loop (DESIGN.md §13.5): msc-comm advances no window of its own.
if grep -rnE 'borrow_step|fresh_ring|WindowPlan|output_slot|input_slot' crates/comm/src; then
  echo "msc-comm is doing window arithmetic again: drive msc_exec::TimeLoop" >&2
  exit 1
fi
# One flag table, one benchmark (DESIGN.md §8.4): the old trajectory
# recorder, its script and its subcommand, and mscc's per-subcommand parse
# functions and help sentinel. Each alternative carries a bracket so this
# line does not find itself.
if grep -rnE 'suite[:]:|mscc[ ]bench|scripts/bench\.sh|BENCH_[F]ILE|check_vm_[s]peedup|parse_[a-z]+_args|__[h]elp__' crates src tests scripts .github README.md DESIGN.md; then
  echo "the retired benchmark suite or a hand-rolled mscc parser is back" >&2
  exit 1
fi

# One halo geometry (DESIGN.md §7): which box goes to which neighbour is
# derived in msc_core::halo alone. The emitted MPI C prints that table, so
# its run-time face arithmetic must not come back; msc-comm keeps no
# decomposition, box type or row odometer of its own; the simulator has no
# face formula.
if grep -rnE 'face_region|face_count' crates/codegen; then
  echo "the emitted MPI C derives halo faces again: print msc_core::halo's rows" >&2
  exit 1
fi
if ls crates/comm/src/decomp.rs crates/comm/src/region.rs 2>/dev/null ||
  grep -rnE 'fn for_each_row|fn toward|halo_bytes_per_proc|msgs_per_proc' crates/comm/src crates/sim/src crates/codegen/src crates/tune/src; then
  echo "a second halo geometry is back: read msc_core::halo::HaloPlan" >&2
  exit 1
fi

# The front half costs what its input costs: the DSL lexer scans bytes and
# its tokens are `Copy` (no character vector, no cloned token).
if grep -nE 'Vec<char>|\.0\.clone\(\)|peek\(\)\.clone\(\)' crates/core/src/parse.rs; then
  echo "the DSL lexer clones again" >&2
  exit 1
fi

# Every per-tap fact is derived once, when a kernel is built (DESIGN.md
# §10.1): below msc-core no layer walks a kernel's expression for its
# accesses or taps, or copies the taps out as a StencilOp; they read
# Kernel::{accesses, taps, reach} and the footprint built from them. Lift
# validation compiles each tier once and admits it per seed (DESIGN.md
# §16.2), never a whole program run per tier and seed. Test modules (from
# a file's first #[cfg(test)] on) may walk the tree.
non_test() { awk 'FNR == 1 { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on { print FILENAME ":" FNR ": " $0 }' "$@"; }
if non_test $(find crates/{lint,codegen,exec,tune}/src -name '*.rs') |
  grep -E 'expr\(\)\s*\.\s*(accesses|access_refs|to_taps)\(|\.to_taps\(|\.to_op\(' ||
  awk '/^pub fn validate\(/, /^}/' crates/lift/src/validate.rs | grep -n 'run_program_tier'; then
  echo "a layer re-walks a kernel's expression, or lift validation runs a program per tier" >&2
  exit 1
fi

# The VM compiles what the tiers hand it (DESIGN.md §12.1): linear tap
# lists, emitted directly over two fixed registers. The expression
# compiler, the SSA builder's peephole and the ops only they emitted were
# deleted, as were the loop tree nobody walked and the run options and
# alert tuning nobody set.
if grep -rnE 'compile_expr|ExprTerm|eval_point|run_point|BinKind|UnKind|Op::(Load|FmaLoad|Bin|Un)\b|merge_fma_chains|looptree|AlertConfig|checkpoint_keep|\.overlap\b' crates src tests examples; then
  echo "a deleted VM path, the loop tree or an unset option is back" >&2
  exit 1
fi

# Lint once (DESIGN.md §10): the passes run in msc_lint::check and the
# report-only lint_program; every layer below a door takes a `Checked`.
if grep -rnE 'lint_program\(|check_deny' crates/{exec,comm,codegen,service}/src; then
  echo "a layer below the front door lints again: take an msc_lint::Checked" >&2
  exit 1
fi

# A hub keeps one account (DESIGN.md §6a, §14.1): one lock over a
# CounterSet, a HistSet and a map of rank rows. The sharded counter banks,
# the atomic histogram banks, the fixed rank table with its overflow cell
# and counter, and the trace items only their own tests called were
# deleted; a lint report is a Json value, never text parsed back.
if grep -rnE 'MAX_RANKS|OVERFLOW_RANK|RankTableOverflow|rank_table_overflow|RankCell|RankTable|MY_SHARD|NEXT_SHARD|struct Shard|capture_from|check_monotone|unpack_message_id|reset_(hists|spans|flight|ranks)\b|fn flight_dump_dir|parse\(&report\.to_json' crates src tests examples; then
  echo "a hub bank, the rank table or a deleted trace item is back" >&2
  exit 1
fi

# A warm mscd submission is a lookup (DESIGN.md §15.4): the cache keys on
# the exact text, never a hash, and a compiled stencil holds no per-run
# count, so one can serve concurrent runs; rows are counted in each
# worker's TierScratch.
if grep -rnE 'take_tier_counters|specialized_rows: AtomicU64|fn fnv64' crates src tests examples; then
  echo "a hashed cache key or a stencil-held row count is back" >&2
  exit 1
fi

# mscd's wire reads each byte once (DESIGN.md §15.1): a JSON string's
# plain bytes are copied a run at a time, never by re-validating the rest
# of the document for each character.
if grep -rnE 'from_utf8\(&b\[\*pos\.\.\]\)' crates src tests examples; then
  echo "the JSON reader re-validates the rest of the document per character again" >&2
  exit 1
fi

echo "== build (release) =="
cargo build --workspace --release --offline

echo "== tests =="
cargo test -q --workspace --offline

echo "== the front half: same answers, same bytes, same errors =="
# By exact name: lift validation's row-per-node oracle against the
# per-cell walk it replaced (generated trees and tap chains, every padded
# cell) and the refusal it must keep (DESIGN.md §16.2, §16.4); a
# validation lints once, compiles each tier once, counts the tiers that
# ran and refuses an empty seed list; a kernel's table against the tree
# walks it replaced (generated expressions, coefficients by bit pattern,
# DESIGN.md §10.1); the 24 benchmark packages and the 24 catalog packages
# against hash tables taken before emission learned to linearize and
# format each kernel once and before it read the kernels' tables; the
# byte lexer's error strings and token stream against the character
# lexer's.
for t in "msc-lift --lib validate::tests::row_evaluation_equals_per_cell_evaluation_bit_for_bit" \
    "msc-lift --lib validate::tests::non_canonical_tap_order_is_caught_as_l508" \
    "msc-lift --lib validate::tests::validation_lints_once_and_compiles_each_tier_once" \
    "msc-lift --lib validate::tests::tiers_count_the_tiers_that_ran" \
    "msc-lift --lib validate::tests::an_empty_seed_list_is_refused_as_l508" \
    "msc-core --lib kernel::tests::kernel_table_equals_the_parent_tree_walks" \
    "msc-codegen --test benchmark_bytes the_24_benchmark_packages_emit_the_pinned_bytes" \
    "msc-codegen --test benchmark_bytes the_catalog_programs_emit_the_pinned_bytes_on_every_target" \
    "msc-core --lib parse::tests::lexer_errors_name_the_line_and_the_whole_character" \
    "msc-core --lib parse::tests::lexer_keeps_digit_led_names_exponents_comments_crlf_and_unicode_space"; do
  # A filter that matches nothing passes too: require the one test.
  out=$(cargo test -q -p ${t% *} --offline "${t##* }" -- --exact)
  grep -q '1 passed' <<<"$out"
done

echo "== one lint per run =="
# By exact name: a distributed run (probe, ranks, a spare's adoption), a
# single-node run and lift validation lint a bare program once and a
# checked one never; an mscd run job lints once on its job hub and a
# denied job's wire line is unchanged; the refusal carries every finding
# and narrowing reaches a direct check's verdict; `mscc --autoschedule`
# checks the schedule it emits (DESIGN.md §10).
for t in "msc --test trace_observability a_run_lints_its_program_once" \
    "msc --test mscc_cli autoschedule_is_checked_after_it_rewrites_the_schedule" \
    "msc-service --lib daemon::tests::a_run_job_that_misses_the_cache_lints_once_on_its_hub" \
    "msc-service --test service a_denied_job_returns_the_full_report_on_the_wire" \
    "msc-lint --lib tests::a_refusal_carries_every_finding" \
    "msc-lint --lib tests::spm_overflow_denied_only_with_cacheless_target"; do
  # A filter that matches nothing passes too: require the one test.
  out=$(cargo test -q -p ${t% *} --offline "${t##* }" -- --exact)
  grep -q '1 passed' <<<"$out"
done

echo "== a warm mscd submission is a lookup =="
# By exact name (DESIGN.md §15.4): a second run submission of one text is a
# hit that lints and compiles nothing and reports the first one's counts;
# texts that differ only in their schedule block miss; a loop over a shared
# compiled stencil runs as `admit` does (catalog x tier x boundary x
# images), concurrent runs of one stencil each count their own rows, a seed
# of another layout is refused, and rows are counted in the scratch.
for t in "msc-service --lib daemon::tests::a_warm_hit_lints_and_compiles_nothing" \
    "msc-service --lib cache::tests::texts_that_differ_only_in_their_schedule_block_miss" \
    "msc-exec --lib driver::tests::a_loop_over_a_shared_compiled_stencil_runs_as_admit_does" \
    "msc-exec --lib driver::tests::concurrent_runs_of_one_stencil_count_their_own_rows" \
    "msc-exec --lib driver::tests::a_seed_of_another_layout_than_the_stencils_is_refused" \
    "msc-exec --lib tier::tests::tier_counts_accumulate_in_the_scratch_not_the_stencil"; do
  # A filter that matches nothing passes too: require the one test.
  out=$(cargo test -q -p ${t% *} --offline "${t##* }" -- --exact)
  grep -q '1 passed' <<<"$out"
done

echo "== mscd's wire reads each byte once =="
# By exact name (DESIGN.md §15.1, §15.4): 16x the bytes of a JSON string
# parse in at most 64x the time; escape then parse returns any string,
# multi-byte, control and quote/backslash neighbours included; every wire
# message renders the line the tree-building codec rendered; a submission
# that fills its line to the cap is answered within 5 s and its connection
# answers a ping; runs of one text borrow the entry's seed, concurrently
# too, and never write it; a compile-only entry, which keeps no program,
# runs what a run miss would have.
for t in "msc-trace --test json_prop a_string_parses_in_time_linear_in_its_length" \
    "msc-trace --test json_prop escape_then_parse_returns_the_input_string" \
    "msc-service --lib proto::tests::every_message_renders_its_pinned_line" \
    "msc-service --lib daemon::tests::a_maximum_size_line_gets_an_answer_not_a_stall" \
    "msc-service --lib daemon::tests::runs_of_one_text_share_the_entrys_seed_and_never_write_it" \
    "msc-service --lib cache::tests::a_compile_only_entry_builds_its_run_from_the_text"; do
  # A filter that matches nothing passes too: require the one test.
  out=$(cargo test -q -p ${t% *} --offline "${t##* }" -- --exact)
  grep -q '1 passed' <<<"$out"
done

echo "== the VM against the oracle; mscd reads a bounded line =="
# By exact name: generated tap lists (0-3 terms, 0-17 taps, repeated and
# unordered offsets, signed zeros, f32 and f64, rows around a chunk) and a
# row of several chunks against interpreter order, bit for bit; the ops and
# registers of every catalog program and of its image kernel (DESIGN.md
# §12.1); a 2 MiB line with no newline gets a typed error and the daemon
# still answers. Then every rejection of the bytecode sanity pass.
for t in "msc-vm --lib compile::tests::linear_program_is_bit_identical_to_interpreter_order" \
    "msc-vm --lib compile::tests::rows_longer_than_one_chunk_match_pointwise_eval" \
    "msc-exec --lib tier::tests::the_vm_program_of_every_catalog_stencil_is_pinned_op_for_op" \
    "msc-service --test service a_line_over_the_cap_gets_an_error_and_the_daemon_still_answers"; do
  # A filter that matches nothing passes too: require the one test.
  out=$(cargo test -q -p ${t% *} --offline "${t##* }" -- --exact)
  grep -q '1 passed' <<<"$out"
done
cargo test -q -p msc-vm --lib --offline program::sanity_tests::

echo "== chaos suite (fixed seeds) =="
# Fault-injected runs must stay bit-identical to fault-free references;
# seeds are fixed so failures reproduce exactly. crates/comm/tests/
# {chaos,recovery,counter_audit}.rs are the pin for the channel: a PR that
# claims the wire is unchanged must not edit them. By name: a wait on a
# killed rank fails as RankDead within a second (no spare, no heartbeat);
# delayed frames are still matched by (source, tag); a dead peer is a
# suspect to a wait at once and to a standby sweep after its silence; a
# chaos spec naming a message fault is refused by that name; a wait past
# the world's deadline dumps the flight recorder.
cargo test -q -p msc-comm --test chaos --offline
for t in "--lib runtime::tests::a_wait_on_a_killed_rank_is_rank_dead_within_a_second" \
    "--lib runtime::tests::delayed_frames_are_matched_by_source_and_tag" \
    "--lib runtime::tests::a_dead_peer_is_a_suspect_to_a_wait_at_once_and_to_a_sweep_after_its_silence" \
    "--lib fault::tests::parse_refuses_message_faults_by_name" \
    "--test chaos a_wait_past_its_deadline_dumps_the_flight_recorder_as_json"; do
  # A filter that matches nothing passes too: require the one test.
  out=$(cargo test -q -p msc-comm ${t% *} --offline "${t##* }" -- --exact)
  grep -q '1 passed' <<<"$out"
done

echo "== online recovery suite (tier x chaos matrix) =="
# A rank killed mid-run must be healed in place by a hot spare from its
# buddy's diskless snapshot — zero world restarts, bit-identical grid —
# under every execution tier (the kill suite names one test per tier).
cargo test -q -p msc-comm --test recovery --offline
for tier in interp vm specialized; do
  cargo test -q -p msc-comm --test recovery --offline \
    "spare_adopts_killed_rank_${tier}_tier"
done
# A rank's window holds kernel images (DESIGN.md §13.5), by exact name:
# kill + heal into every rotation of the slot roles (buddy and disk,
# both backends, both boundaries, two and three time dependencies,
# against one node and against the SPM-staged run); the online disk
# source; the marker that keeps a window of states from being read as
# state + images; and the counters a reusing, a recomputing and a
# single-node run must agree on.
for t in "recovery a_kill_heals_into_a_window_that_holds_kernel_images" \
    "recovery a_spare_adopts_an_image_holding_window_from_the_disk_store" \
    "recovery a_checkpoint_written_under_the_other_window_layout_is_refused_not_misread" \
    "counter_audit reusing_kernel_images_counts_what_recomputing_counts_on_ranks_and_on_one_node"; do
  # A filter that matches nothing passes too: require the one test.
  out=$(cargo test -q -p msc-comm --test ${t% *} --offline "${t#* }" -- --exact)
  grep -q '1 passed' <<<"$out"
done
out=$(cargo test -q -p msc-comm --lib --offline \
  checkpoint::tests::a_runs_store_reads_only_the_layout_it_holds -- --exact)
grep -q '1 passed' <<<"$out"

echo "== one account per run =="
# The session hub is fed from the account a step and a rank return, so it
# equals CommStats counter for counter (but the hub-only pool and compile
# counts, and the run-global steps and ranks) and bucket for bucket, over
# both process-grid shapes, backends, stagings and window layouts; a
# killed attempt's faults still reach it (DESIGN.md §6a).
for t in the_hub_is_the_runs_own_account_counter_for_counter_and_bucket_for_bucket \
    a_killed_attempts_faults_and_timeouts_still_reach_the_hub; do
  # A filter that matches nothing passes too: require the one test.
  out=$(cargo test -q -p msc-comm --test one_account --offline "$t" -- --exact)
  grep -q '1 passed' <<<"$out"
done

# A hub's account (DESIGN.md §14.1), by exact name: it saturates as the
# sets it merges do, any rank id gets a row of its own, and eight
# concurrent publishers sum to their merged accounts; `mscc check --json`
# keeps its bytes.
for t in "msc-trace --lib hub::tests::a_hub_saturates_exactly_as_the_sets_it_merges" \
    "msc-trace --lib hub::tests::any_rank_id_gets_its_own_row" \
    "msc-trace --lib hub::tests::concurrent_publishers_sum_to_their_merged_accounts" \
    "msc --test mscc_cli check_json_of_a_deny_fixture_is_pinned_byte_for_byte"; do
  # A filter that matches nothing passes too: require the one test.
  out=$(cargo test -q -p ${t% *} --offline "${t##* }" -- --exact)
  grep -q '1 passed' <<<"$out"
done

echo "== execution-tier differential (staging x tier x dtype matrix) =="
# Every catalog stencil must produce grids bit-identical (to_bits) to the
# serial reference in every cell of {direct, SPM, time-block} x {interp,
# VM, specialized} x {f32, f64}, signed zeros included (DESIGN.md §12.3,
# §18.2) — the interpreter is the oracle. Direct staging runs every cell
# under both boundaries, with kernel images by rule and forced off, and
# by rule once more the way a rank steps: owned seed, two tile subsets
# around a hook (DESIGN.md §13.5).
cargo test -q -p msc-exec --lib --offline tier_differential::
# Kernel-image reuse (DESIGN.md §12.6), by exact name, one test each: the
# hand programs (term orders, depths, skipped dt, 0..2*depth+3 steps)
# by rule and forced onto the recomputing step; the decline for different
# kernels; signed zeros, infinities and NaN payloads through an image;
# thread counts; a window snapshotted after any step count and restored
# into another loop; the property test over random programs; the decision
# rule; the ring's typed refusal; the sweep's second output grid.
for t in tier_differential::kernel_image_reuse_matches_recomputing_on_hand_programs \
    tier_differential::a_window_restored_from_its_slots_at_any_step_continues_bit_for_bit \
    tier_differential::terms_naming_different_kernels_decline_kernel_images \
    tier_differential::kernel_images_carry_signed_zeros_infinities_and_nan_payloads \
    tier_differential::kernel_image_reuse_is_the_same_on_any_thread_count \
    driver::tests::reference_recomputed_and_reused_runs_agree_bit_for_bit \
    driver::tests::one_slot_cannot_take_the_image_and_the_state_of_a_step \
    tier::tests::kernel_images_are_decided_from_the_terms_and_the_bytes_a_step_streams \
    sweep::tests::a_tile_gets_its_rows_in_every_output_grid_of_the_one_layout; do
  # A filter that matches nothing passes too: require the one test.
  out=$(cargo test -q -p msc-exec --lib --offline "$t" -- --exact)
  grep -q '1 passed' <<<"$out"
done
# Row blocks (DESIGN.md §12.1), by exact name: the block schedules the
# rule is read from, the rule and the banner clause, row groups handed out
# by the sweep core, whole runs through blocks against the oracle (one
# node and two ranks), and the comm stash that keeps arrival order.
for t in "msc-exec --lib specialized::tests::block_schedules_share_what_neighbouring_rows_read" \
    "msc-exec --lib tier::tests::rows_are_blocked_for_one_cache_resident_term_whose_rows_share_half_its_taps" \
    "msc-exec --lib sweep::tests::row_groups_hand_out_every_row_of_every_tile_once" \
    "msc-exec --lib tier_differential::row_blocks_match_the_oracle_at_any_tile_row_count" \
    "msc-comm --test row_blocks a_two_rank_121_point_box_through_row_blocks_is_bit_identical" \
    "msc-comm --lib runtime::tests::stashed_frames_of_one_source_and_tag_come_back_in_arrival_order" \
    "msc --test mscc_cli the_run_banner_says_whether_rows_go_four_at_a_time"; do
  # A filter that matches nothing passes too: require the one test.
  out=$(cargo test -q -p ${t% *} --offline "${t##* }" -- --exact)
  grep -q '1 passed' <<<"$out"
done
# The sweep core holds the crate's only tile-write `unsafe` (one
# expression, however many grids a sweep writes), and nothing under
# cfg(miri) may warn: the Miri job builds with it.
test "$(grep -l 'from_raw_parts_mut' crates/exec/src/*.rs)" = crates/exec/src/sweep.rs
test "$(grep -c 'from_raw_parts_mut' crates/exec/src/sweep.rs)" = 1
out=$(RUSTFLAGS="--cfg miri" cargo check -p msc-exec --lib --tests --offline 2>&1)
if grep '^warning' <<<"$out"; then
  echo "msc-exec warns under cfg(miri)" >&2
  exit 1
fi
# The sweep core's own tests: every tile cell written exactly once,
# overlapping tile lists refused, the one unsafe write site (CI also runs
# these under Miri).
cargo test -q -p msc-exec --lib --offline sweep::
# The blocked row kernel against apply_at on random tap lists, plain and
# prefetching (DESIGN.md §12.5): one test on every vector ISA this host
# reports, one pinned to the baseline instantiation so the SSE2 path runs
# on AVX hosts too; then who gets the prefetching kernel (sizes alone;
# never a tile-local staging).
cargo test -q -p msc-exec --lib --offline blocked_kernel_matches_apply_at
cargo test -q -p msc-exec --lib --offline -- prefetch_is_decided \
  only_whole_grid_stencils_may_prefetch
# The shared-seed time-window ring against the eager one-copy-per-slot
# ring it replaced (steps x boundary x executor x max_dt, halo bits,
# `init` untouched), and the halo-shell copy its fresh slots start from,
# below and above the size where the slot is populated by one madvise
# (DESIGN.md §17.3).
cargo test -q -p msc-exec --lib --offline -- grid::tests::halo_shell \
  grid::tests::a_pre_faulted_halo_shell grid::tests::populate \
  driver::tests::shared_seed_ring driver::tests::ring_slots
# A run's cold slots are the ones its thread's last run retired, when they
# are over the populate gate (DESIGN.md §17.4), by exact name: a reused
# slot poisoned with NaN changes no bit and keeps the new seed's halo
# (recomputing and image-reusing, both boundaries); a thread keeps at most
# the last ring's slots, of its layout and scalar type.
for t in driver::tests::a_reused_slot_leaves_no_trace \
    driver::tests::a_thread_retires_at_most_the_last_rings_slots_of_its_layout_and_type; do
  # A filter that matches nothing passes too: require the one test.
  out=$(cargo test -q -p msc-exec --lib --offline "$t" -- --exact)
  grep -q '1 passed' <<<"$out"
done

echo "== AddressSanitizer (msc-exec, msc-trace, msc-comm) =="
# ROADMAP item 7, step 1: the tile-write site that hands out row groups
# (DESIGN.md §18.3), the block kernel, the tier differential and the worker
# pool; the span buffers' `UnsafeCell` writes; a rank killed and healed
# under every tier; the fixed-seed chaos suite. With ASan and LeakSanitizer. Nightly ships the
# sanitizer runtimes but no rust-src, so std is uninstrumented, which ASan
# tolerates. The instrumented build keeps a target dir of its own.
if cargo +nightly --version >/dev/null 2>&1; then
  for t in "msc-exec --lib" "msc-exec --test pool_determinism" "msc-trace --lib" \
      "msc-comm --test recovery" "msc-comm --test chaos"; do
    RUSTFLAGS=-Zsanitizer=address CARGO_TARGET_DIR=target/asan \
      cargo +nightly test -q --offline -p $t --target x86_64-unknown-linux-gnu
  done
else
  echo "skip: no nightly toolchain for the AddressSanitizer stage"
fi

echo "== clippy =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== examples compile =="
cargo build --workspace --examples --offline

echo "== stencil verifier (mscc check) =="
# Every shipped example must lint clean; every deny fixture must be
# denied and its fixed twin must pass.
cargo build --offline --bin mscc
for f in examples/dsl/*.msc; do
  ./target/debug/mscc check "$f"
done
for f in crates/lint/fixtures/*.deny.msc; do
  if ./target/debug/mscc check "$f" >/dev/null; then
    echo "expected deny: $f" >&2
    exit 1
  fi
done
for f in crates/lint/fixtures/*.fixed.msc; do
  ./target/debug/mscc check "$f" >/dev/null
done

echo "== legacy C lifting (mscc lift: corpus + deny fixtures) =="
# Every corpus kernel must lift lint-clean and validate bit-for-bit
# against direct interpretation of the C nest on all execution tiers;
# every deny fixture must fail with a typed structured diagnostic
# (never a panic), surfaced through --json as machine-readable MSC-L
# codes.
tmpl=$(mktemp -d)
for f in examples/lift/*.c; do
  ./target/debug/mscc lift "$f" > "$tmpl/lift.out"
  grep -q 'validated bit-for-bit' "$tmpl/lift.out"
done
for f in crates/lift/fixtures/*.deny.c; do
  if ./target/debug/mscc lift "$f" --json >"$tmpl/deny.json"; then
    echo "expected lift deny: $f" >&2
    exit 1
  fi
  grep -q '"diagnostics"' "$tmpl/deny.json" || {
    echo "lift deny must emit structured JSON: $f" >&2
    exit 1
  }
done
# The lifted corpus round-trips through the DSL front end: emitted .msc
# source must pass the same `mscc check` gate as hand-written programs.
for f in examples/lift/*.c; do
  out="$tmpl/$(basename "${f%.c}").msc"
  ./target/debug/mscc lift "$f" --emit-msc | sed -n '/^stencil/,$p' > "$out"
  ./target/debug/mscc check "$out" >/dev/null
done
rm -rf "$tmpl"

echo "== live telemetry (chaos-kill run + strict metrics validation) =="
# A 2-rank run with a mid-run kill must still heal bit-identically while
# the sampler leaves behind a JSONL metrics stream and an OpenMetrics
# sibling; `mscc top --once --strict` replays the stream through the
# strict checker (schema tag, seq continuity, counter monotonicity, and
# the OpenMetrics parser on the .om file).
tmpm=$(mktemp -d)
./target/release/mscc examples/dsl/3d7pt.msc --run --procs 2x1x1 \
  --chaos '1:kill=1@3' --checkpoint-dir "$tmpm/ckpt" --checkpoint-every 2 \
  --metrics-file "$tmpm/metrics.jsonl" --metrics-interval-ms 100 \
  -o "$tmpm/out"
./target/release/mscc top "$tmpm/metrics.jsonl" --once --strict
test -s "$tmpm/metrics.om"
grep -q comm_fault "$tmpm/metrics.jsonl"
rm -rf "$tmpm"
# Observing a run must stay near-free: the sampler-overhead budget is a
# claim about optimised builds, so the test that holds it is ignored in
# debug builds and runs here.
cargo test -q --release --offline --test telemetry_live

echo "== compile-and-run service (mscd smoke) =="
# Start mscd, prove the compile cache (the second identical submission
# is a hit), the lint front door (a deny fixture bounces with its MSC-L
# code as a structured error while the daemon survives), admission
# liveness (ping), and graceful shutdown over the wire.
tmps=$(mktemp -d)
./target/release/mscc serve --socket "$tmps/mscd.sock" --workers 2 \
  --metrics-dir "$tmps/metrics" &
mscd_pid=$!
for _ in $(seq 1 100); do
  [ -S "$tmps/mscd.sock" ] && break
  sleep 0.05
done
test -S "$tmps/mscd.sock"
./target/release/mscc submit --socket "$tmps/mscd.sock" --run examples/dsl/wave2d.msc
# Capture, then grep: `grep -q` exits on first match and closing the
# pipe mid-print makes the client die on EPIPE (a long-standing flake).
./target/release/mscc submit --socket "$tmps/mscd.sock" examples/dsl/wave2d.msc \
  > "$tmps/second.out"
grep -q 'cache hit' "$tmps/second.out"
if ./target/release/mscc submit --socket "$tmps/mscd.sock" \
    crates/lint/fixtures/halo_narrow.deny.msc 2>"$tmps/deny.err"; then
  echo "expected daemon deny: halo_narrow.deny.msc" >&2
  exit 1
fi
grep -q 'MSC-L101' "$tmps/deny.err"
./target/release/mscc submit --socket "$tmps/mscd.sock" --ping > "$tmps/ping.out"
grep -q 'mscd alive' "$tmps/ping.out"
./target/release/mscc submit --socket "$tmps/mscd.sock" --shutdown
wait "$mscd_pid"
rm -rf "$tmps"

echo "== BENCHMARK smoke (schema + bit-correctness of all five workloads) =="
# Toy sizes, no timing claims: every solve is compared bit for bit with
# the Reference oracle, so a kernel change that breaks a comparison fails
# here before anyone measures it.
bash benchmark/run.sh --smoke

echo "verify: all green"
