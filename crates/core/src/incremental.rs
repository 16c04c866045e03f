//! Incremental re-analysis: the content-hashed session cache behind
//! `soccar serve`.
//!
//! [`AnalysisSession`] wraps the batch pipeline ([`Soccar::analyze`])
//! with four cache tiers, each keyed by content so an RTL edit
//! invalidates exactly what it touches:
//!
//! | tier | key | holds | invalidated by |
//! |------|-----|-------|----------------|
//! | report | raw source + request | full [`AnalysisReport`] | any byte change |
//! | parse | raw chunk hash | per-module AST (0-based spans); at most `CacheCaps::design` versions per module name | editing that module's text |
//! | extract | structural module hash | per-module `ArCfg` | semantic edit to that module |
//! | design | ordered structural hashes + top | elaborated design, composed `SocArCfg`, bound events | semantic edit anywhere |
//! | concolic | design key + properties + config | [`ConcolicReport`] | semantic edit / request change |
//!
//! The contract — pinned by the `warm_equals_cold` tests and the server
//! integration suite — is that a warm [`AnalysisSession::analyze`]
//! returns a report whose [`AnalysisReport::canonical_json`] is
//! byte-identical to a cold batch run of the same request. Lint always
//! re-runs (it is span-dependent and milliseconds-cheap); cached module
//! ASTs are span-rebased into the new file so its diagnostics cannot
//! drift. Requests carrying a fault-injection plan bypass every tier and
//! delegate to the batch pipeline, because injected faults key on global
//! task indices the per-module warm path does not reproduce; requests
//! with a wall-clock round deadline keep the structural tiers but skip
//! the result tiers, since their outcome is timing-dependent.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;
use soccar_cfg::bind::BoundEvent;
use soccar_cfg::extract::{extract_module_cfg, project_ar_cfg, ArCfg};
use soccar_cfg::{bind_events, compose_soc_prepared};
use soccar_concolic::{ConcolicEngine, ConcolicReport, SecurityProperty};
use soccar_lint::Linter;
use soccar_rtl::ast::Module;
use soccar_rtl::elaborate::elaborate;
use soccar_rtl::fingerprint::{assemble_unit, hash_bytes, module_fingerprint, split_modules};
use soccar_rtl::span::SourceMap;
use soccar_rtl::Design;
use soccar_smt::SolveBudget;

use crate::error::SoccarError;
use crate::pipeline::{
    AnalysisReport, ExecSummary, ExtractionSummary, Health, Soccar, SoccarConfig, StageReport,
};

/// Per-request quality-of-service overrides, layered over the session's
/// base [`SoccarConfig`] (the server fills this from request fields; the
/// CLI flags `--solver-budget`, `--keep-going`, `--round-deadline-ms`
/// have the same meaning in batch mode).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestQos {
    /// Per-flip-solve resource budget.
    pub solver_budget: Option<SolveBudget>,
    /// Degrade instead of aborting on worker panics.
    pub keep_going: Option<bool>,
    /// Wall-clock deadline per concolic round, in milliseconds. Setting
    /// this makes the outcome timing-dependent, so such requests skip
    /// the report/concolic cache tiers.
    pub round_deadline_ms: Option<u64>,
}

impl RequestQos {
    /// Applies the overrides to a copy of `base`.
    #[must_use]
    pub fn apply(&self, base: &SoccarConfig) -> SoccarConfig {
        let mut config = base.clone();
        if let Some(budget) = self.solver_budget {
            config.concolic.solver_budget = budget;
        }
        if let Some(keep_going) = self.keep_going {
            config.keep_going = keep_going;
        }
        if let Some(ms) = self.round_deadline_ms {
            config.concolic.round_deadline = Some(Duration::from_millis(ms));
        }
        config
    }
}

/// What one [`AnalysisSession::analyze`] call reused and recomputed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RequestStats {
    /// The whole report came from the report tier.
    pub report_cache_hit: bool,
    /// The request fell back to the batch pipeline (unsplittable source
    /// or a fault-injection plan).
    pub fallback: bool,
    /// Modules in the source.
    pub modules_total: usize,
    /// Modules whose chunk text changed and were re-parsed.
    pub modules_reparsed: usize,
    /// Modules whose structure changed and were re-extracted.
    pub modules_reextracted: usize,
    /// Elaboration/composition/binding was reused from the design tier.
    pub design_cache_hit: bool,
    /// The concolic stage was reused from the result tier.
    pub concolic_cache_hit: bool,
    /// Concolic targets actually re-run (0 on a concolic cache hit).
    pub targets_rerun: usize,
}

/// Session-lifetime cache counters, for `status` responses and the
/// `server.*` observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SessionCounters {
    /// Analyze requests served.
    pub requests: u64,
    /// Requests answered entirely from the report tier.
    pub cache_hits: u64,
    /// Requests that bypassed the session (fallback to batch).
    pub fallbacks: u64,
    /// Module re-parses across all requests.
    pub modules_reparsed: u64,
    /// Module re-extractions across all requests.
    pub modules_reextracted: u64,
    /// Concolic targets re-run across all requests.
    pub targets_rerun: u64,
    /// Entries dropped from any tier by capacity eviction.
    pub evictions: u64,
}

/// Capacity limits for the cache tiers (entries, not bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCaps {
    /// Parse tier: per-module ASTs. Each module name also keeps at most
    /// `design` versions.
    pub parse: usize,
    /// Extract tier: per-module AR_CFGs.
    pub extract: usize,
    /// Design tier: elaborated designs with composed/bound AR_CFGs.
    pub design: usize,
    /// Concolic tier: engine reports.
    pub concolic: usize,
    /// Report tier: full analysis reports.
    pub report: usize,
}

impl Default for CacheCaps {
    fn default() -> CacheCaps {
        CacheCaps {
            parse: 4096,
            extract: 4096,
            design: 2,
            concolic: 64,
            report: 64,
        }
    }
}

/// A bounded map with cost-aware, recency-tiered eviction — the policy
/// every cache tier shares (it replaced the original FIFO once the serve
/// layer saw real mixed traffic).
///
/// Each entry carries a caller-supplied **cost**: an estimate of what
/// recomputing it takes, scaled by its size (bytes of source for the
/// structural tiers, targets × cycles for the concolic tier). Eviction
/// picks its victim in two tiers:
///
/// 1. **cold** entries — untouched for more than `cap` map operations —
///    are evicted first, cheapest first;
/// 2. only when no entry is cold does eviction reach into the **recent**
///    tier, again cheapest first.
///
/// Ties break on insertion sequence (oldest first), so the victim is a
/// pure function of the operation history: no wall clock, no hash-map
/// iteration order, no thread timing. Requests serialize over the
/// session mutex, which makes the operation history — and therefore
/// eviction — deterministic for a given request sequence, exactly like
/// the FIFO it replaced. Cached *results* are never policy-dependent;
/// the policy only decides what is recomputed.
#[derive(Debug)]
struct CostAwareMap<K, V> {
    entries: HashMap<K, CostSlot<V>>,
    cap: usize,
    /// Logical clock: bumps on every get/insert; drives the recency tier.
    clock: u64,
    /// Insertion sequence: the deterministic tie-breaker.
    seq: u64,
}

#[derive(Debug)]
struct CostSlot<V> {
    value: V,
    cost: u64,
    last_use: u64,
    seq: u64,
}

impl<K: Eq + Hash + Clone, V> CostAwareMap<K, V> {
    fn new(cap: usize) -> CostAwareMap<K, V> {
        CostAwareMap {
            entries: HashMap::new(),
            cap: cap.max(1),
            clock: 0,
            seq: 0,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(key).map(|slot| {
            slot.last_use = clock;
            &slot.value
        })
    }

    /// Inserts with a recompute-cost estimate, returning how many old
    /// entries were evicted to make room.
    fn insert(&mut self, key: K, value: V, cost: u64) -> u64 {
        self.clock += 1;
        let mut evicted = 0;
        if !self.entries.contains_key(&key) {
            while self.entries.len() >= self.cap {
                let Some(victim) = self.victim() else { break };
                self.entries.remove(&victim);
                evicted += 1;
            }
        }
        self.seq += 1;
        self.entries.insert(
            key,
            CostSlot {
                value,
                cost,
                last_use: self.clock,
                seq: self.seq,
            },
        );
        evicted
    }

    /// The deterministic eviction victim: cold before recent, cheap
    /// before expensive, oldest insertion as the final tie-break.
    fn victim(&self) -> Option<K> {
        self.victim_among(self.entries.keys())
    }

    /// [`CostAwareMap::victim`] restricted to those of `keys` present.
    fn victim_among<'k>(&self, keys: impl Iterator<Item = &'k K>) -> Option<K>
    where
        K: 'k,
    {
        let horizon = self.clock.saturating_sub(self.cap as u64);
        keys.filter_map(|key| self.entries.get_key_value(key))
            .min_by_key(|(_, slot)| (slot.last_use > horizon, slot.cost, slot.seq))
            .map(|(key, _)| key.clone())
    }

    fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    fn remove(&mut self, key: &K) {
        self.entries.remove(key);
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Everything derived from one structural design state: the elaborated
/// design, the composed SoC AR_CFG, and the bound events. Shared via
/// `Arc` so the concolic engine can borrow it while the session mutates
/// other tiers.
#[derive(Debug)]
struct DesignEntry {
    design: Design,
    soc: soccar_cfg::SocArCfg,
    bound: Vec<BoundEvent>,
}

/// Design-tier key: the ordered structural fingerprints of every module
/// plus the top module and the extraction-configuration fingerprint
/// (analysis flavor + reset naming). Comment/whitespace edits hash
/// identically and hit; any semantic edit misses.
type DesignKey = (Vec<u64>, String, u64);

/// Result-tier entry for the concolic stage.
#[derive(Debug, Clone)]
struct ConcolicEntry {
    report: ConcolicReport,
}

/// A persistent, content-hashed analysis session (see the
/// [module docs](self)).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soccar::incremental::AnalysisSession;
/// use soccar::SoccarConfig;
///
/// let src = "module top(input clk, input sys_rst_n, output reg q);
///   always @(posedge clk or negedge sys_rst_n)
///     if (!sys_rst_n) q <= 1'b0; else q <= 1'b1;
/// endmodule";
/// let mut session = AnalysisSession::new(SoccarConfig::default());
/// let (cold, s1) = session.analyze("t.v", src, "top", vec![], &Default::default())?;
/// let (warm, s2) = session.analyze("t.v", src, "top", vec![], &Default::default())?;
/// assert!(!s1.report_cache_hit);
/// assert!(s2.report_cache_hit);
/// assert_eq!(cold.canonical_json()?, warm.canonical_json()?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AnalysisSession {
    config: SoccarConfig,
    recorder: soccar_obs::Recorder,
    caps: CacheCaps,
    parse_cache: CostAwareMap<u64, Module>,
    /// Parse-tier keys by module name: the versions of each module the
    /// tier holds (see [`AnalysisSession::admit_parsed`]).
    parse_versions: HashMap<String, Vec<u64>>,
    extract_cache: CostAwareMap<(u64, u64), ArCfg>,
    design_cache: CostAwareMap<DesignKey, Arc<DesignEntry>>,
    concolic_cache: CostAwareMap<u64, ConcolicEntry>,
    report_cache: CostAwareMap<u64, AnalysisReport>,
    counters: SessionCounters,
}

impl AnalysisSession {
    /// Creates a session with default cache capacities.
    #[must_use]
    pub fn new(config: SoccarConfig) -> AnalysisSession {
        AnalysisSession::with_caps(config, CacheCaps::default())
    }

    /// Creates a session with explicit cache capacities.
    #[must_use]
    pub fn with_caps(config: SoccarConfig, caps: CacheCaps) -> AnalysisSession {
        AnalysisSession {
            config,
            recorder: soccar_obs::Recorder::disabled(),
            caps,
            parse_cache: CostAwareMap::new(caps.parse),
            parse_versions: HashMap::new(),
            extract_cache: CostAwareMap::new(caps.extract),
            design_cache: CostAwareMap::new(caps.design),
            concolic_cache: CostAwareMap::new(caps.concolic),
            report_cache: CostAwareMap::new(caps.report),
            counters: SessionCounters::default(),
        }
    }

    /// Attaches an observability recorder: cache effectiveness lands in
    /// `server.cache_hits` / `server.modules_reextracted` /
    /// `server.targets_rerun` / `server.evictions` counters, and
    /// fallback batch runs trace through it like batch CLI runs.
    #[must_use]
    pub fn with_recorder(mut self, recorder: soccar_obs::Recorder) -> AnalysisSession {
        self.recorder = recorder;
        self
    }

    /// The session's base configuration (before per-request QoS).
    #[must_use]
    pub fn config(&self) -> &SoccarConfig {
        &self.config
    }

    /// Session-lifetime cache counters.
    #[must_use]
    pub fn counters(&self) -> &SessionCounters {
        &self.counters
    }

    /// The cache capacity limits the session was built with.
    #[must_use]
    pub fn caps(&self) -> CacheCaps {
        self.caps
    }

    /// Entries currently held by each tier, in [`CacheCaps`] field
    /// order: `(parse, extract, design, concolic, report)`.
    #[must_use]
    pub fn tier_sizes(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.parse_cache.len(),
            self.extract_cache.len(),
            self.design_cache.len(),
            self.concolic_cache.len(),
            self.report_cache.len(),
        )
    }

    /// Inserts a freshly parsed module into the parse tier, returning how
    /// many entries were evicted. One module name keeps at most
    /// `caps.design` versions, one per design the design tier can hold:
    /// a stream of edits to one module replaces its stale versions
    /// (each an AST about ten times its source text) instead of piling
    /// them up until the tier's own cap.
    fn admit_parsed(&mut self, raw_fp: u64, module: Module, cost: u64) -> u64 {
        let cache = &mut self.parse_cache;
        let versions = self.parse_versions.entry(module.name.clone()).or_default();
        versions.retain(|fp| cache.contains(fp));
        let mut evicted = 0;
        while versions.len() >= self.caps.design.max(1) {
            let Some(victim) = cache.victim_among(versions.iter()) else {
                break;
            };
            cache.remove(&victim);
            versions.retain(|fp| *fp != victim);
            evicted += 1;
        }
        versions.push(raw_fp);
        evicted + cache.insert(raw_fp, module, cost)
    }

    /// Runs one analysis request against the session caches.
    ///
    /// The returned report's canonical form is byte-identical to
    /// `Soccar::new(qos.apply(config)).analyze(..)` on the same input.
    ///
    /// # Errors
    ///
    /// Exactly the batch pipeline's errors: frontend, composition,
    /// binding, engine-setup and simulation failures.
    pub fn analyze(
        &mut self,
        file_name: &str,
        source: &str,
        top: &str,
        properties: Vec<SecurityProperty>,
        qos: &RequestQos,
    ) -> Result<(AnalysisReport, RequestStats), SoccarError> {
        let config = qos.apply(&self.config);
        self.analyze_with_config(file_name, source, top, properties, &config)
    }

    /// Like [`AnalysisSession::analyze`], but with a fully explicit
    /// per-request configuration instead of QoS deltas over the session
    /// base — the entry point the analysis server uses, since requests
    /// carry their own cycles/rounds/symbolic-input/analysis knobs. Every
    /// cache key incorporates the configuration fields that influence its
    /// tier, so mixed-configuration request streams stay correct.
    ///
    /// # Errors
    ///
    /// Exactly the batch pipeline's errors: frontend, composition,
    /// binding, engine-setup and simulation failures.
    pub fn analyze_with_config(
        &mut self,
        file_name: &str,
        source: &str,
        top: &str,
        properties: Vec<SecurityProperty>,
        config: &SoccarConfig,
    ) -> Result<(AnalysisReport, RequestStats), SoccarError> {
        self.counters.requests += 1;
        self.recorder.counter_add("server.requests", 1);
        // A wall-clock deadline makes results timing-dependent: such
        // requests must never be served from (or poison) a result tier.
        let cacheable_results = config.concolic.round_deadline.is_none();

        // Fault plans key on global task indices that only the batch
        // fan-out reproduces; delegate wholesale.
        if !config.fault_plan.is_empty() || !config.concolic.fault_plan.is_empty() {
            return self.fallback(file_name, source, top, properties, config);
        }

        let request_fp = request_fingerprint(file_name, source, top, &properties, config);
        if cacheable_results {
            if let Some(report) = self.report_cache.get(&request_fp) {
                self.counters.cache_hits += 1;
                self.recorder.counter_add("server.cache_hits", 1);
                let stats = RequestStats {
                    report_cache_hit: true,
                    modules_total: report.extraction.modules,
                    ..RequestStats::default()
                };
                return Ok((report.clone(), stats));
            }
        }

        // Sources the chunk scanner cannot shape fall back to batch —
        // including anything that would not parse, so error reporting is
        // untouched.
        let Some(chunks) = split_modules(source) else {
            return self.fallback(file_name, source, top, properties, config);
        };

        let total_start = Instant::now();
        let mut stats = RequestStats {
            modules_total: chunks.len(),
            ..RequestStats::default()
        };
        let mut evictions = 0u64;

        // Frontend: assemble the unit from cached per-module ASTs.
        let frontend_start = Instant::now();
        let mut reparsed = 0usize;
        let assembled = assemble_unit(soccar_rtl::span::FileId(0), &chunks, |raw_fp| {
            let hit = self.parse_cache.get(&raw_fp).cloned();
            if hit.is_none() {
                reparsed += 1;
            }
            hit
        });
        let Some(unit) = assembled else {
            // A chunk failed to parse: the batch path reproduces the
            // exact diagnostic.
            return self.fallback(file_name, source, top, properties, config);
        };
        stats.modules_reparsed = reparsed;
        self.counters.modules_reparsed += reparsed as u64;
        // Refill the parse tier from the assembled unit: chunk ASTs are
        // the rebased modules shifted back to 0-based form, which is
        // exactly what a standalone chunk parse produces — but cheaper
        // to recover by re-parsing only the misses.
        for chunk in &chunks {
            let raw_fp = chunk.raw_fingerprint();
            if self.parse_cache.get(&raw_fp).is_none() {
                if let Ok(parsed) =
                    soccar_rtl::parser::parse(soccar_rtl::span::FileId(0), &chunk.text)
                {
                    if let [m] = parsed.modules.as_slice() {
                        // Re-parse cost scales with the chunk's size.
                        evictions += self.admit_parsed(raw_fp, m.clone(), chunk.text.len() as u64);
                    }
                }
            }
        }
        let mut map = SourceMap::new();
        map.add_file(file_name, source);

        let fps: Vec<u64> = unit.modules.iter().map(module_fingerprint).collect();
        // Extraction depends on the analysis flavor and the reset naming
        // convention; both join the structural keys.
        let extract_cfg_fp =
            hash_bytes(format!("{:?}/{:?}", config.analysis, config.naming).as_bytes());
        let design_key: DesignKey = (fps.clone(), top.to_owned(), extract_cfg_fp);
        let design_entry = self.design_cache.get(&design_key).cloned();
        stats.design_cache_hit = design_entry.is_some();

        // On a design miss, elaboration runs inside the frontend stage,
        // mirroring the batch stage boundaries.
        let predesign = match &design_entry {
            Some(_) => None,
            None => Some(elaborate(&unit, top)?),
        };
        let frontend_elapsed = frontend_start.elapsed();

        // Lint always re-runs: it is span-dependent and cheap.
        let lint_start = Instant::now();
        let lint = Linter::new()
            .with_naming(config.naming.clone())
            .with_config(config.lint.clone())
            .lint_unit(&unit, &map);
        let lint_elapsed = lint_start.elapsed();

        // AR_CFG: per-module extraction through the extract tier, then
        // the serial compose walk and binding.
        let ar_cfg_start = Instant::now();
        let entry = match design_entry {
            Some(entry) => entry,
            None => {
                let design = predesign.expect("computed on design miss");
                let mut ar_cfgs: HashMap<String, ArCfg> = HashMap::new();
                // `assemble_unit` emits modules in chunk order, so each
                // module's chunk (its re-extraction cost proxy) rides
                // along by position.
                for ((module, fp), chunk) in unit.modules.iter().zip(&fps).zip(&chunks) {
                    let key = (*fp, extract_cfg_fp);
                    let ar = match self.extract_cache.get(&key) {
                        Some(ar) => ar.clone(),
                        None => {
                            stats.modules_reextracted += 1;
                            let ar = project_ar_cfg(&extract_module_cfg(
                                module,
                                &config.naming,
                                config.analysis,
                            ));
                            evictions +=
                                self.extract_cache
                                    .insert(key, ar.clone(), chunk.text.len() as u64);
                            ar
                        }
                    };
                    ar_cfgs.insert(module.name.clone(), ar);
                }
                let soc =
                    compose_soc_prepared(&unit, top, &config.naming, &ar_cfgs, &self.recorder)
                        .map_err(SoccarError::Cfg)?;
                let bound =
                    bind_events(&design, &soc).map_err(|e| SoccarError::Cfg(e.to_string()))?;
                let entry = Arc::new(DesignEntry { design, soc, bound });
                // Rebuilding a design entry re-elaborates and re-composes
                // the whole file: cost is the full source size.
                evictions += self.design_cache.insert(
                    design_key.clone(),
                    Arc::clone(&entry),
                    source.len() as u64,
                );
                entry
            }
        };
        self.counters.modules_reextracted += stats.modules_reextracted as u64;
        self.recorder.counter_add(
            "server.modules_reextracted",
            stats.modules_reextracted as u64,
        );
        let ar_cfg_elapsed = ar_cfg_start.elapsed();

        let extraction = ExtractionSummary {
            modules: unit.modules.len(),
            instances: entry.soc.instances.len(),
            ar_events: entry.soc.event_count(),
            reset_domains: entry.soc.reset_domains.len(),
            bound_events: entry.bound.len(),
        };

        // Concolic: the result tier keys on the design key plus every
        // request field that reaches the engine (properties and the
        // jobs-normalized engine config — reports are job-invariant).
        let concolic_start = Instant::now();
        let concolic_fp = {
            let mut normalized = config.concolic.clone();
            normalized.jobs = 0;
            let mut h = hash_bytes(format!("{design_key:?}").as_bytes());
            h ^= hash_bytes(format!("{properties:?}").as_bytes()).rotate_left(13);
            h ^= hash_bytes(format!("{normalized:?}/{}", config.keep_going).as_bytes())
                .rotate_left(29);
            h
        };
        let concolic_key = concolic_fp;
        let cached_concolic = if cacheable_results {
            self.concolic_cache.get(&concolic_key).cloned()
        } else {
            None
        };
        stats.concolic_cache_hit = cached_concolic.is_some();
        let concolic = match cached_concolic {
            Some(entry) => entry.report,
            None => {
                let jobs = soccar_exec::resolve_jobs(Some(config.jobs));
                let mut concolic_config = config.concolic.clone();
                concolic_config.jobs = jobs;
                if config.keep_going {
                    concolic_config.failure_policy = soccar_exec::FailurePolicy::KeepGoing;
                }
                let mut engine = ConcolicEngine::new(
                    &entry.design,
                    &entry.bound,
                    properties.clone(),
                    concolic_config,
                )
                .map_err(SoccarError::Config)?
                .with_recorder(self.recorder.clone());
                let report = engine.run()?;
                stats.targets_rerun = report.targets_total;
                if cacheable_results {
                    // Re-running concolic costs roughly targets × cycles
                    // of simulate-and-solve work.
                    let cost = (report.targets_total as u64 + 1) * config.concolic.cycles.max(1);
                    evictions += self.concolic_cache.insert(
                        concolic_key,
                        ConcolicEntry {
                            report: report.clone(),
                        },
                        cost,
                    );
                }
                report
            }
        };
        self.counters.targets_rerun += stats.targets_rerun as u64;
        self.recorder
            .counter_add("server.targets_rerun", stats.targets_rerun as u64);
        let concolic_elapsed = concolic_start.elapsed();

        // Assemble the report with batch-identical stage names, details
        // and health; only the timing (non-canonical) differs.
        let stages = vec![
            StageReport {
                stage: "frontend".into(),
                elapsed: frontend_elapsed,
                detail: format!("{} modules; {}", unit.modules.len(), entry.design.stats()),
                exec: None,
                health: Health::Ok,
            },
            StageReport {
                stage: "lint".into(),
                elapsed: lint_elapsed,
                detail: lint.summary(),
                exec: None,
                health: Health::Ok,
            },
            StageReport {
                stage: "ar_cfg".into(),
                elapsed: ar_cfg_elapsed,
                detail: format!(
                    "{} reset-governed events across {} instances; {} reset domains",
                    entry.soc.event_count(),
                    entry.soc.instances.len(),
                    entry.soc.reset_domains.len()
                ),
                exec: Some(ExecSummary {
                    jobs: 1,
                    tasks: stats.modules_reextracted,
                    busy_secs: ar_cfg_elapsed.as_secs_f64(),
                    utilization: 1.0,
                }),
                health: Health::Ok,
            },
            StageReport {
                stage: "concolic".into(),
                elapsed: concolic_elapsed,
                detail: format!(
                    "{} rounds, {}/{} targets covered, {} violations",
                    concolic.rounds,
                    concolic.targets_covered,
                    concolic.targets_total,
                    concolic.violations.len()
                ),
                exec: Some(ExecSummary::from(&concolic.flip_exec)),
                health: Health::from_reasons(concolic.degraded_reasons.clone()),
            },
        ];
        let report = AnalysisReport {
            stages,
            lint,
            extraction,
            concolic,
            total: total_start.elapsed(),
        };
        if cacheable_results {
            evictions += self
                .report_cache
                .insert(request_fp, report.clone(), source.len() as u64);
        }
        if evictions > 0 {
            self.counters.evictions += evictions;
            self.recorder.counter_add("server.evictions", evictions);
        }
        Ok((report, stats))
    }

    /// Delegates a request to the batch pipeline (no structural caches),
    /// still counting it and caching the full report when safe.
    fn fallback(
        &mut self,
        file_name: &str,
        source: &str,
        top: &str,
        properties: Vec<SecurityProperty>,
        config: &SoccarConfig,
    ) -> Result<(AnalysisReport, RequestStats), SoccarError> {
        self.counters.fallbacks += 1;
        self.recorder.counter_add("server.fallbacks", 1);
        let report = Soccar::new(config.clone())
            .with_recorder(self.recorder.clone())
            .analyze(file_name, source, top, properties.clone())?;
        let stats = RequestStats {
            fallback: true,
            modules_total: report.extraction.modules,
            modules_reparsed: report.extraction.modules,
            modules_reextracted: report.extraction.modules,
            targets_rerun: report.concolic.targets_total,
            ..RequestStats::default()
        };
        self.counters.modules_reparsed += stats.modules_reparsed as u64;
        self.counters.modules_reextracted += stats.modules_reextracted as u64;
        self.counters.targets_rerun += stats.targets_rerun as u64;
        self.recorder.counter_add(
            "server.modules_reextracted",
            stats.modules_reextracted as u64,
        );
        self.recorder
            .counter_add("server.targets_rerun", stats.targets_rerun as u64);
        let cacheable = config.fault_plan.is_empty()
            && config.concolic.fault_plan.is_empty()
            && config.concolic.round_deadline.is_none();
        if cacheable {
            let fp = request_fingerprint(file_name, source, top, &properties, config);
            let evictions = self
                .report_cache
                .insert(fp, report.clone(), source.len() as u64);
            if evictions > 0 {
                self.counters.evictions += evictions;
                self.recorder.counter_add("server.evictions", evictions);
            }
        }
        Ok((report, stats))
    }
}

/// Report-tier key: every request field that can influence the result.
/// `Debug` renderings are stable within a build, which is the cache's
/// lifetime.
fn request_fingerprint(
    file_name: &str,
    source: &str,
    top: &str,
    properties: &[SecurityProperty],
    config: &SoccarConfig,
) -> u64 {
    let mut normalized = config.clone();
    normalized.jobs = 0;
    normalized.concolic.jobs = 0;
    let mut h = hash_bytes(source.as_bytes());
    h ^= hash_bytes(file_name.as_bytes()).rotate_left(7);
    h ^= hash_bytes(top.as_bytes()).rotate_left(17);
    h ^= hash_bytes(format!("{properties:?}").as_bytes()).rotate_left(27);
    h ^= hash_bytes(
        format!(
            "{:?}/{:?}/{:?}/{:?}/{}",
            normalized.analysis,
            normalized.naming,
            normalized.concolic,
            normalized.lint,
            normalized.keep_going
        )
        .as_bytes(),
    )
    .rotate_left(37);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use soccar_concolic::PropertyKind;
    use soccar_rtl::LogicVec;

    /// The pipeline test design: an unscrubbed key register behind a
    /// reset-governed module, parameterized so tests can perturb one
    /// module without touching the other.
    fn leaky(ip_value: u8, top_comment: &str) -> String {
        format!(
            "module ip(input clk, input rst_n, output reg [7:0] key);
  always @(posedge clk or negedge rst_n)
    if (!rst_n) key <= key;
    else key <= 8'h{ip_value:02X};
endmodule
module top(input clk, input sec_rst_n);{top_comment}
  ip u (.clk(clk), .rst_n(sec_rst_n));
endmodule
"
        )
    }

    fn key_property() -> SecurityProperty {
        SecurityProperty {
            name: "key-cleared".into(),
            module: "ip".into(),
            kind: PropertyKind::ClearedAfterReset {
                domain: "top.sec_rst_n".into(),
                signal: "top.u.key".into(),
                expected: LogicVec::zeros(8),
                window: 0,
            },
        }
    }

    fn batch_canonical(source: &str, config: &SoccarConfig) -> String {
        Soccar::new(config.clone())
            .analyze("t.v", source, "top", vec![key_property()])
            .expect("batch analyze")
            .canonical_json()
            .expect("canonical json")
    }

    #[test]
    fn warm_session_matches_batch_byte_for_byte() {
        let src = leaky(0xA5, "");
        let config = SoccarConfig::default();
        let batch = batch_canonical(&src, &config);

        let mut session = AnalysisSession::new(config);
        let qos = RequestQos::default();
        let (cold, s1) = session
            .analyze("t.v", &src, "top", vec![key_property()], &qos)
            .expect("cold analyze");
        assert!(!s1.report_cache_hit);
        assert!(!s1.fallback);
        assert_eq!(s1.modules_total, 2);
        assert_eq!(s1.modules_reparsed, 2);
        assert_eq!(s1.modules_reextracted, 2);
        assert_eq!(cold.canonical_json().expect("json"), batch);

        let (warm, s2) = session
            .analyze("t.v", &src, "top", vec![key_property()], &qos)
            .expect("warm analyze");
        assert!(s2.report_cache_hit);
        assert_eq!(s2.modules_reextracted, 0);
        assert_eq!(warm.canonical_json().expect("json"), batch);
        assert_eq!(session.counters().requests, 2);
        assert_eq!(session.counters().cache_hits, 1);
    }

    #[test]
    fn comment_edit_keeps_structural_and_result_tiers() {
        let config = SoccarConfig::default();
        let mut session = AnalysisSession::new(config.clone());
        let qos = RequestQos::default();
        let v0 = leaky(0xA5, "");
        session
            .analyze("t.v", &v0, "top", vec![key_property()], &qos)
            .expect("prime");

        let v1 = leaky(0xA5, " // wiring only");
        let (report, stats) = session
            .analyze("t.v", &v1, "top", vec![key_property()], &qos)
            .expect("comment edit");
        assert!(!stats.report_cache_hit, "source bytes changed");
        assert_eq!(stats.modules_reparsed, 1, "only top's chunk changed");
        assert_eq!(stats.modules_reextracted, 0, "structure unchanged");
        assert!(stats.design_cache_hit);
        assert!(stats.concolic_cache_hit);
        assert_eq!(stats.targets_rerun, 0);
        assert_eq!(
            report.canonical_json().expect("json"),
            batch_canonical(&v1, &config)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Satellite: a perturbed edit to one module re-extracts exactly
        /// that module, and the warm report equals a cold batch run of
        /// the edited source byte-for-byte.
        #[test]
        fn single_module_edit_reextracts_only_that_module(
            v0 in 0u8..=255,
            v1 in 0u8..=255,
        ) {
            prop_assume!(v0 != v1);
            let config = SoccarConfig::default();
            let mut session = AnalysisSession::new(config.clone());
            let qos = RequestQos::default();
            let src0 = leaky(v0, "");
            session
                .analyze("t.v", &src0, "top", vec![key_property()], &qos)
                .expect("prime");

            let src1 = leaky(v1, "");
            let (warm, stats) = session
                .analyze("t.v", &src1, "top", vec![key_property()], &qos)
                .expect("edited analyze");
            prop_assert!(!stats.report_cache_hit);
            prop_assert_eq!(stats.modules_reparsed, 1);
            prop_assert_eq!(stats.modules_reextracted, 1);
            prop_assert!(!stats.design_cache_hit);
            prop_assert_eq!(
                warm.canonical_json().expect("json"),
                batch_canonical(&src1, &config)
            );
        }
    }

    #[test]
    fn fault_plan_requests_fall_back_to_batch() {
        let config = SoccarConfig {
            keep_going: true,
            fault_plan: soccar_exec::FaultPlan::parse("task_panic@extract:1").expect("plan"),
            ..SoccarConfig::default()
        };
        let src = leaky(0xA5, "");
        let batch = batch_canonical(&src, &config);
        let mut session = AnalysisSession::new(config);
        let (report, stats) = session
            .analyze(
                "t.v",
                &src,
                "top",
                vec![key_property()],
                &RequestQos::default(),
            )
            .expect("fallback analyze");
        assert!(stats.fallback);
        assert_eq!(report.canonical_json().expect("json"), batch);
        assert_eq!(session.counters().fallbacks, 1);
    }

    #[test]
    fn parse_errors_match_batch_via_fallback() {
        let mut session = AnalysisSession::new(SoccarConfig::default());
        let err = session
            .analyze(
                "t.v",
                "module broken(",
                "broken",
                vec![],
                &RequestQos::default(),
            )
            .expect_err("parse error");
        let batch_err = Soccar::new(SoccarConfig::default())
            .analyze("t.v", "module broken(", "broken", vec![])
            .expect_err("batch parse error");
        assert_eq!(err.to_string(), batch_err.to_string());
        assert!(matches!(err, SoccarError::Rtl(_)));
    }

    #[test]
    fn deadline_requests_skip_result_tiers_but_keep_structural_ones() {
        let mut session = AnalysisSession::new(SoccarConfig::default());
        let qos = RequestQos {
            round_deadline_ms: Some(60_000),
            ..RequestQos::default()
        };
        let src = leaky(0xA5, "");
        session
            .analyze("t.v", &src, "top", vec![key_property()], &qos)
            .expect("first deadline run");
        let (_, stats) = session
            .analyze("t.v", &src, "top", vec![key_property()], &qos)
            .expect("second deadline run");
        assert!(!stats.report_cache_hit, "deadline results are uncacheable");
        assert!(!stats.concolic_cache_hit);
        assert!(stats.design_cache_hit, "structural tiers stay valid");
        assert_eq!(stats.modules_reextracted, 0);
    }

    #[test]
    fn qos_overlays_the_session_config() {
        let base = SoccarConfig::default();
        let qos = RequestQos {
            solver_budget: Some(SolveBudget::conflicts(7)),
            keep_going: Some(true),
            round_deadline_ms: Some(123),
        };
        let applied = qos.apply(&base);
        assert_eq!(applied.concolic.solver_budget, SolveBudget::conflicts(7));
        assert!(applied.keep_going);
        assert_eq!(
            applied.concolic.round_deadline,
            Some(Duration::from_millis(123))
        );
        assert_eq!(
            RequestQos::default().apply(&base).keep_going,
            base.keep_going
        );
    }

    #[test]
    fn eviction_prefers_cold_entries_over_expensive_recent_ones() {
        let mut map: CostAwareMap<&str, ()> = CostAwareMap::new(2);
        map.insert("cheap_recent", (), 10);
        map.insert("costly_cold", (), 1000);
        // Touch the cheap entry; the costly one ages past the horizon.
        assert!(map.get(&"cheap_recent").is_some());
        map.insert("newcomer", (), 1);
        assert!(
            map.get(&"costly_cold").is_none(),
            "a cold entry is evicted before a recent one, whatever its cost"
        );
        assert!(map.get(&"cheap_recent").is_some());
        assert!(map.get(&"newcomer").is_some());
    }

    #[test]
    fn eviction_picks_the_cheapest_cold_entry_with_seq_tiebreak() {
        let mut map: CostAwareMap<&str, ()> = CostAwareMap::new(2);
        map.insert("expensive", (), 500);
        map.insert("cheap", (), 1);
        // Age both entries past the recency horizon with missed lookups.
        assert!(map.get(&"absent").is_none());
        assert!(map.get(&"absent").is_none());
        map.insert("newcomer", (), 7);
        assert!(
            map.get(&"cheap").is_none(),
            "cheapest cold entry goes first"
        );
        assert!(map.get(&"expensive").is_some());

        // Equal costs: the older insertion loses.
        let mut map: CostAwareMap<&str, ()> = CostAwareMap::new(2);
        map.insert("older", (), 3);
        map.insert("newer", (), 3);
        assert!(map.get(&"absent").is_none());
        assert!(map.get(&"absent").is_none());
        map.insert("newcomer", (), 3);
        assert!(map.get(&"older").is_none());
        assert!(map.get(&"newer").is_some());
    }

    #[test]
    fn reinserting_an_existing_key_never_evicts() {
        let mut map: CostAwareMap<&str, u32> = CostAwareMap::new(2);
        map.insert("a", 1, 1);
        map.insert("b", 2, 1);
        assert_eq!(map.insert("a", 3, 1), 0, "overwrite needs no room");
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(&"a"), Some(&3));
    }

    #[test]
    fn report_tier_eviction_is_counted() {
        let caps = CacheCaps {
            report: 1,
            ..CacheCaps::default()
        };
        let mut session = AnalysisSession::with_caps(SoccarConfig::default(), caps);
        let qos = RequestQos::default();
        for value in [0x11u8, 0x22, 0x33] {
            let src = leaky(value, "");
            session
                .analyze("t.v", &src, "top", vec![key_property()], &qos)
                .expect("analyze");
        }
        assert!(session.counters().evictions >= 2);
        let (_, _, _, _, reports) = session.tier_sizes();
        assert_eq!(reports, 1);
    }

    #[test]
    fn parse_tier_keeps_one_module_version_per_cached_design() {
        // Edits to one module replace its stale parse-tier versions: the
        // tier holds at most `caps.design` of them, each edit re-parses
        // only the edited module, and reports still match batch.
        let caps = CacheCaps {
            design: 2,
            ..CacheCaps::default()
        };
        let config = SoccarConfig::default();
        let mut session = AnalysisSession::with_caps(config.clone(), caps);
        let qos = RequestQos::default();
        for (i, value) in [0x11u8, 0x22, 0x33, 0x44].into_iter().enumerate() {
            let src = leaky(value, "");
            let (report, stats) = session
                .analyze("t.v", &src, "top", vec![key_property()], &qos)
                .expect("analyze");
            assert_eq!(stats.modules_reparsed, if i == 0 { 2 } else { 1 });
            assert_eq!(
                report.canonical_json().expect("json"),
                batch_canonical(&src, &config)
            );
        }
        let (parse, ..) = session.tier_sizes();
        assert_eq!(parse, 1 + 2, "`top` plus two versions of `ip`");
        assert!(session.counters().evictions >= 2);
    }
}
