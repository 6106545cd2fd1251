//! The out-of-order core timing model.
//!
//! A timestamp-driven model in the style of trace-driven
//! instruction-window simulators: each dynamic instruction receives
//! fetch, dispatch, issue, completion and retire timestamps subject to
//! the machine's structural constraints (fetch/issue/retire bandwidth,
//! window occupancy, dependences, cache latencies, branch redirects).
//! This captures exactly the effects the paper's IPC evaluation depends
//! on — L1 miss latency exposed through the window — at a fraction of the
//! cost of a cycle-by-cycle core model.

use cache_sim::{AccessKind, Addr, MemoryHierarchy};
use trace_gen::{Op, TraceRecord};

use crate::bandwidth::BandwidthLimiter;
use crate::config::CpuConfig;
use crate::tlb::Tlb;

/// The result of one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct CpuReport {
    /// Instructions executed.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Loads + stores executed.
    pub memory_ops: u64,
    /// Mispredicted branches encountered.
    pub mispredicts: u64,
    /// Instruction-TLB misses (0 when no iTLB is configured).
    pub itlb_misses: u64,
    /// Data-TLB misses (0 when no dTLB is configured).
    pub dtlb_misses: u64,
}

impl CpuReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// The 4-issue out-of-order processor of Table 4, wrapped around a
/// [`MemoryHierarchy`].
///
/// # Examples
///
/// ```
/// use cache_sim::{DirectMappedCache, MemoryHierarchy};
/// use cpu_model::{Cpu, CpuConfig};
/// use trace_gen::{profiles, Trace};
///
/// let l1i = DirectMappedCache::new(16 * 1024, 32)?;
/// let l1d = DirectMappedCache::new(16 * 1024, 32)?;
/// let hierarchy = MemoryHierarchy::new(Box::new(l1i), Box::new(l1d));
/// let mut cpu = Cpu::new(CpuConfig::default(), hierarchy);
///
/// let profile = profiles::by_name("gzip").unwrap();
/// let report = cpu.run(Trace::new(&profile, 1).take(10_000));
/// assert!(report.ipc() > 0.1 && report.ipc() <= 4.0);
/// # Ok::<(), cache_sim::GeometryError>(())
/// ```
pub struct Cpu {
    config: CpuConfig,
    hierarchy: MemoryHierarchy,
}

impl Cpu {
    /// Creates a core around a memory hierarchy.
    pub fn new(config: CpuConfig, hierarchy: MemoryHierarchy) -> Self {
        Cpu { config, hierarchy }
    }

    /// The memory hierarchy (for miss statistics after a run).
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// Mutable access to the hierarchy (e.g. to reset statistics between
    /// a warm-up prefix and the measured run).
    pub fn hierarchy_mut(&mut self) -> &mut MemoryHierarchy {
        &mut self.hierarchy
    }

    /// The configuration.
    pub fn config(&self) -> CpuConfig {
        self.config
    }

    /// Simulates the trace to completion and reports timing.
    pub fn run<I>(&mut self, trace: I) -> CpuReport
    where
        I: IntoIterator<Item = TraceRecord>,
    {
        let cfg = self.config;
        let mut itlb = cfg.itlb.map(Tlb::new);
        let mut dtlb = cfg.dtlb.map(Tlb::new);
        let mut fetch_bw = BandwidthLimiter::new(cfg.fetch_width);
        let mut issue_bw = BandwidthLimiter::new(cfg.issue_width);
        let mut retire_bw = BandwidthLimiter::new(cfg.retire_width);

        // Retire times of the last `window` instructions (ring buffer):
        // instruction i cannot dispatch before i - window retired.
        let mut rob = vec![0u64; cfg.window];
        // Completion times of recent instructions for dependences.
        let mut completions = [0u64; DEP_RING];

        let mut fetch_line = u64::MAX;
        let mut fetch_block_ready = 0u64; // I$ miss stall
        let mut redirect_until = 0u64; // branch mispredict redirect
        let mut last_retire = 0u64;

        let mut n = 0u64;
        let mut memory_ops = 0u64;
        let mut mispredicts = 0u64;

        for rec in trace {
            let i = n as usize;

            // --- Fetch ---
            let line = rec.pc / 32;
            if line != fetch_line {
                fetch_line = line;
                // The I$ access starts once fetch reaches this block.
                let start = fetch_block_ready
                    .max(redirect_until)
                    .max(fetch_bw.current_cycle());
                let mut latency = self.hierarchy.fetch(Addr::new(rec.pc));
                if let Some(t) = itlb.as_mut() {
                    latency += t.translate(Addr::new(rec.pc));
                }
                fetch_block_ready = start + latency - 1;
            }
            let fetch_t = fetch_bw.slot(fetch_block_ready.max(redirect_until));

            // --- Dispatch: front-end depth + a free window slot ---
            let rob_free = rob[i % cfg.window];
            let dispatch_t = (fetch_t + cfg.frontend_depth).max(rob_free);

            // --- Ready: wait for the synthetic producer ---
            let dep_dist = dep_distance(rec.pc);
            let dep_ready = if (i as u64) >= dep_dist as u64 {
                completions[(i - dep_dist) % DEP_RING]
            } else {
                0
            };
            let ready_t = dispatch_t.max(dep_ready);

            // --- Issue & execute ---
            let issue_t = issue_bw.slot(ready_t);
            let latency = match rec.op {
                Op::Alu | Op::Branch { .. } => 1,
                Op::Long => cfg.long_op_latency,
                Op::Load(addr) => {
                    memory_ops += 1;
                    let tlb_lat = dtlb.as_mut().map_or(0, |t| t.translate(Addr::new(addr)));
                    tlb_lat
                        + self
                            .hierarchy
                            .data_access(Addr::new(addr), AccessKind::Read)
                }
                Op::Store(addr) => {
                    memory_ops += 1;
                    if let Some(t) = dtlb.as_mut() {
                        t.translate(Addr::new(addr));
                    }
                    // The store buffer hides the store's miss latency, but
                    // the access still updates the cache state (write-
                    // allocate) and the L2/memory traffic counters.
                    self.hierarchy
                        .data_access(Addr::new(addr), AccessKind::Write);
                    1
                }
            };
            let complete_t = issue_t + latency;
            completions[i % DEP_RING] = complete_t;

            // --- Branch redirect ---
            if let Op::Branch { mispredict: true } = rec.op {
                mispredicts += 1;
                redirect_until = redirect_until.max(complete_t + cfg.mispredict_penalty);
            }

            // --- Retire: in order, bounded bandwidth ---
            let retire_t = retire_bw.slot(complete_t.max(last_retire));
            last_retire = retire_t;
            rob[i % cfg.window] = retire_t;

            n += 1;
        }

        CpuReport {
            instructions: n,
            cycles: last_retire + 1,
            memory_ops,
            mispredicts,
            itlb_misses: itlb.map_or(0, |t| t.misses()),
            dtlb_misses: dtlb.map_or(0, |t| t.misses()),
        }
    }
}

/// Completion times kept for dependences: the longest dependence
/// distance.
const DEP_RING: usize = 8;

/// The distance, in [1, `DEP_RING`], from an instruction back to its
/// synthetic producer: a deterministic hash of the PC that models the
/// ILP available around it.
fn dep_distance(pc: u64) -> usize {
    ((pc >> 2).wrapping_mul(2654435761) >> 16) as usize % DEP_RING + 1
}

impl std::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("config", &self.config)
            .field("hierarchy", &self.hierarchy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::DirectMappedCache;

    fn dm_hierarchy() -> MemoryHierarchy {
        let l1i = DirectMappedCache::new(16 * 1024, 32).unwrap();
        let l1d = DirectMappedCache::new(16 * 1024, 32).unwrap();
        MemoryHierarchy::new(Box::new(l1i), Box::new(l1d))
    }

    fn cpu() -> Cpu {
        Cpu::new(CpuConfig::default(), dm_hierarchy())
    }

    /// A straight-line all-ALU trace with a warm I$.
    fn alu_trace(n: usize) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord {
                pc: 0x1000 + (i as u64 % 8) * 4,
                op: Op::Alu,
            })
            .collect()
    }

    /// `n` instructions at one PC, so every one waits on the instruction
    /// a fixed distance d before it.
    fn one_pc(pc: u64, n: usize, op: impl Fn(u64) -> Op) -> Vec<TraceRecord> {
        (0..n as u64)
            .map(|i| TraceRecord { pc, op: op(i) })
            .collect()
    }

    /// A PC whose dependence distance is `d`.
    fn pc_at_distance(d: usize) -> u64 {
        (0x1000u64..)
            .step_by(4)
            .find(|&pc| dep_distance(pc) == d)
            .unwrap()
    }

    /// `n` instructions at dependence distance d, each of latency L,
    /// form d independent chains that advance one instruction per L
    /// cycles, capped by the issue width. So once the pipeline has
    /// filled, `n` more instructions cost n * max(1/issue_width, L/d)
    /// cycles: `cycles(2n) - cycles(n)`, within one cycle. `n` must be
    /// a multiple of 840 (the least common multiple of 1..=8), so every
    /// chain gets exactly n/d more instructions at every d.
    fn assert_marginal_cost(name: &str, latency: u64, n: usize, op: impl Fn(u64) -> Op + Copy) {
        assert_eq!(n % 840, 0, "n must split evenly into every chain count");
        let width = CpuConfig::default().issue_width;
        for d in 1..=DEP_RING {
            let pc = pc_at_distance(d);
            let cycles = |n| cpu().run(one_pc(pc, n, op)).cycles;
            let marginal = cycles(2 * n) - cycles(n);
            let expected = (n as f64 / f64::from(width)).max(n as f64 * latency as f64 / d as f64);
            assert!(
                (marginal as f64 - expected).abs() <= 1.0,
                "{name}, d = {d}: {n} more instructions cost {marginal} cycles, \
                 closed form {expected}"
            );
        }
    }

    #[test]
    fn alu_chains_match_the_closed_form() {
        assert_marginal_cost("ALU", 1, 8_400, |_| Op::Alu);
    }

    #[test]
    fn long_op_chains_match_the_closed_form() {
        let latency = CpuConfig::default().long_op_latency;
        assert_marginal_cost("long op", latency, 8_400, |_| Op::Long);
    }

    #[test]
    fn miss_chains_match_the_closed_form() {
        // Every load touches a new 8 kB-apart line, so it misses both
        // L1 and L2 and pays the full L1 + L2 + memory latency.
        let lat = dm_hierarchy().latency();
        let latency = lat.l1_hit + lat.l2_hit + lat.memory;
        assert_marginal_cost("all-miss load", latency, 1_680, |i| {
            Op::Load(0x100_0000 + i * 8192)
        });
    }

    #[test]
    fn ipc_bounded_by_width() {
        let mut c = cpu();
        let r = c.run(alu_trace(10_000));
        assert!(r.ipc() <= 4.0, "IPC {} exceeds machine width", r.ipc());
        assert!(
            r.ipc() > 0.5,
            "IPC {} unreasonably low for pure ALU work",
            r.ipc()
        );
        assert_eq!(r.instructions, 10_000);
    }

    #[test]
    fn cache_misses_reduce_ipc() {
        // Loads striding far beyond L2 versus loads hitting one line.
        let hit_trace: Vec<TraceRecord> = (0..5_000)
            .map(|i| TraceRecord {
                pc: 0x1000 + (i % 4) * 4,
                op: Op::Load(0x8000),
            })
            .collect();
        let miss_trace: Vec<TraceRecord> = (0..5_000)
            .map(|i| TraceRecord {
                pc: 0x1000 + (i % 4) * 4,
                op: Op::Load(0x10_0000 + i * 4096),
            })
            .collect();
        let ipc_hit = cpu().run(hit_trace).ipc();
        let ipc_miss = cpu().run(miss_trace).ipc();
        assert!(
            ipc_hit > 3.0 * ipc_miss,
            "misses must hurt: hit {ipc_hit:.3} vs miss {ipc_miss:.3}"
        );
    }

    #[test]
    fn mispredicts_reduce_ipc() {
        let clean: Vec<TraceRecord> = (0..5_000)
            .map(|i| TraceRecord {
                pc: 0x1000 + (i % 8) * 4,
                op: Op::Branch { mispredict: false },
            })
            .collect();
        let dirty: Vec<TraceRecord> = (0..5_000)
            .map(|i| TraceRecord {
                pc: 0x1000 + (i % 8) * 4,
                op: Op::Branch {
                    mispredict: i % 4 == 0,
                },
            })
            .collect();
        let ipc_clean = cpu().run(clean).ipc();
        let ipc_dirty = cpu().run(dirty).ipc();
        assert!(ipc_clean > ipc_dirty, "{ipc_clean} vs {ipc_dirty}");
    }

    #[test]
    fn long_ops_are_slower_than_alu() {
        let alu = cpu().run(alu_trace(5_000)).ipc();
        let long_trace: Vec<TraceRecord> = (0..5_000)
            .map(|i| TraceRecord {
                pc: 0x1000 + (i % 8) * 4,
                op: Op::Long,
            })
            .collect();
        let long = cpu().run(long_trace).ipc();
        assert!(alu > long);
    }

    #[test]
    fn icache_misses_stall_fetch() {
        // Jump across many lines (one instruction per line) far apart so
        // every fetch misses, versus a tight loop.
        let scattered: Vec<TraceRecord> = (0..2_000)
            .map(|i| TraceRecord {
                pc: (i as u64) * 40_960,
                op: Op::Alu,
            })
            .collect();
        let tight = cpu().run(alu_trace(2_000)).ipc();
        let scattered_ipc = cpu().run(scattered).ipc();
        assert!(tight > 5.0 * scattered_ipc, "{tight} vs {scattered_ipc}");
    }

    #[test]
    fn deterministic_runs() {
        let t = alu_trace(3_000);
        let a = cpu().run(t.clone());
        let b = cpu().run(t);
        assert_eq!(a, b);
    }

    #[test]
    fn counts_memory_ops_and_mispredicts() {
        let trace = vec![
            TraceRecord {
                pc: 0,
                op: Op::Load(64),
            },
            TraceRecord {
                pc: 4,
                op: Op::Store(128),
            },
            TraceRecord {
                pc: 8,
                op: Op::Branch { mispredict: true },
            },
            TraceRecord {
                pc: 12,
                op: Op::Alu,
            },
        ];
        let r = cpu().run(trace);
        assert_eq!(r.memory_ops, 2);
        assert_eq!(r.mispredicts, 1);
        assert_eq!(r.instructions, 4);
    }

    #[test]
    fn empty_trace_reports_zero_work() {
        let r = cpu().run(Vec::new());
        assert_eq!(r.instructions, 0);
        assert_eq!(r.ipc(), 0.0);
    }

    #[test]
    fn hierarchy_statistics_are_visible_after_run() {
        let mut c = cpu();
        c.run(alu_trace(100));
        assert!(c.hierarchy().l1i().stats().total().accesses() > 0);
    }

    #[test]
    fn tlb_misses_cost_cycles() {
        use crate::tlb::TlbConfig;
        // Loads striding across many pages versus one page.
        let wide: Vec<TraceRecord> = (0..3_000)
            .map(|i| TraceRecord {
                pc: 0x1000 + (i % 4) * 4,
                op: Op::Load((i % 512) * 8192),
            })
            .collect();
        let mut with_tlb = Cpu::new(
            CpuConfig {
                dtlb: Some(TlbConfig {
                    entries: 8,
                    page_bytes: 8192,
                    miss_penalty: 30,
                }),
                ..CpuConfig::default()
            },
            dm_hierarchy(),
        );
        let mut without = cpu();
        let r_tlb = with_tlb.run(wide.clone());
        let r_no = without.run(wide);
        assert!(
            r_tlb.dtlb_misses > 1_000,
            "512 pages overwhelm an 8-entry TLB"
        );
        assert!(r_tlb.cycles > r_no.cycles, "page walks must cost cycles");
        assert_eq!(r_no.dtlb_misses, 0);
    }

    #[test]
    fn window_limits_overlap_of_long_loads() {
        // Every load misses to memory and depends on the load d <= 8
        // before it, so at most 8 misses overlap: the dependence bound
        // d/latency binds before the 16-entry window's 16/latency does.
        // The assertion checks only the looser window bound.
        let misses: Vec<TraceRecord> = (0..2_000)
            .map(|i| TraceRecord {
                pc: 0x1000 + (i % 4) * 4,
                op: Op::Load(0x100_0000 + i * 8192),
            })
            .collect();
        let r = cpu().run(misses);
        let bound = 16.0 / 100.0;
        assert!(
            r.ipc() < bound * 2.5,
            "IPC {} violates window bound {bound}",
            r.ipc()
        );
    }
}
