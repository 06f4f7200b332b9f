//! LRU cache of [`PreparedDesign`]s keyed by source content.
//!
//! The serve subsystem's compile-once-simulate-many core: jobs hand the
//! cache a source program plus compile options, and get back a shared
//! [`PreparedDesign`] — compiled, stylesheet-translated, netlist- and
//! FSM-table-parsed — ready to simulate. The key is a 64-bit FNV-1a hash
//! of the *whitespace-canonicalized* source and the compile options, so
//! two submissions that differ only in indentation or line breaks share
//! one cache entry (and one compile).
//!
//! Concurrency contract:
//!
//! - The cache is `Sync`; any number of worker threads share one
//!   [`DesignCache`] behind an `Arc`.
//! - Compilation runs *outside* the lock. Concurrent requests for the
//!   same key are single-flighted: the first requester compiles, later
//!   ones block on a condvar and reuse the result — two clients
//!   submitting the same design cost one compile and two simulations.
//! - Hits, misses, and evictions are counted; the serve `stats` request
//!   and the warm/cold benchmark read them.

use crate::flow::{prepare_design, FlowError, PreparedDesign};
use nenya::{compile_program, CompileError, CompileOptions};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Version of the key encoding below. Bump whenever the field layout
/// changes so old and new keys can never alias.
const KEY_ENCODING_VERSION: u8 = 1;

/// Field-id tags for the key encoding: every field is preceded by its
/// tag byte, so adjacent fields can never alias (e.g. a policy-name
/// suffix flowing into the optimize byte) and adding a field is a
/// guaranteed key change.
const FIELD_SOURCE: u8 = 1;
const FIELD_WIDTH: u8 = 2;
const FIELD_PARTITIONS: u8 = 3;
const FIELD_POLICY: u8 = 4;
const FIELD_OPTIMIZE: u8 = 5;

/// Hashes a source program and its compile options into a cache key.
///
/// The source is canonicalized by splitting on whitespace and re-joining
/// with single spaces, so formatting-only differences map to the same
/// key. Every compile option that changes the generated design (width,
/// policy, partitions, optimize) is folded in as a *tagged, versioned*
/// encoding: a version byte, then each field as a field-id byte followed
/// by a fixed-width or length-prefixed value. Option names come from an
/// exhaustive `match`, never `Debug` formatting, so a rendering change
/// cannot silently re-key the cache.
pub fn content_hash(source: &str, options: &CompileOptions) -> u64 {
    // FNV-1a, 64-bit.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut byte = |b: u8| {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    };
    byte(KEY_ENCODING_VERSION);
    // The canonicalized source, length-prefixed by token count so a
    // source that happens to end in option-like bytes cannot alias an
    // option field.
    byte(FIELD_SOURCE);
    let token_count = source.split_whitespace().count() as u64;
    for b in token_count.to_le_bytes() {
        byte(b);
    }
    for (i, token) in source.split_whitespace().enumerate() {
        if i > 0 {
            byte(b' ');
        }
        for b in token.bytes() {
            byte(b);
        }
    }
    byte(FIELD_WIDTH);
    for b in options.width.to_le_bytes() {
        byte(b);
    }
    byte(FIELD_PARTITIONS);
    for b in (options.partitions as u64).to_le_bytes() {
        byte(b);
    }
    byte(FIELD_POLICY);
    // The policy's stable word: adding a variant is a compile error in
    // `as_str` until it gets its own spelling.
    let policy_name = options.policy.as_str();
    for b in (policy_name.len() as u32).to_le_bytes() {
        byte(b);
    }
    for b in policy_name.bytes() {
        byte(b);
    }
    byte(FIELD_OPTIMIZE);
    byte(u8::from(options.optimize));
    hash
}

/// Counters and occupancy of a [`DesignCache`], as one consistent
/// snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from the cache (no compile).
    pub hits: u64,
    /// Requests that compiled (first sight of a key, or re-fetch after
    /// eviction).
    pub misses: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Prepared designs currently held.
    pub entries: usize,
    /// Configured capacity.
    pub capacity: usize,
}

/// One in-flight build (single-flight slot). The builder deposits the
/// finished design *here* as well as in the LRU list, so a waiter that
/// loses the wake-up race to an eviction still receives the build it
/// waited for — it must never become a second builder for the same
/// request, and its hit/miss accounting must not depend on LRU timing.
struct Pending {
    /// Distinguishes this build from a later one for the same key: a
    /// waiter that registered with generation *g* must not consume (or
    /// decrement the waiter count of) a successor slot.
    generation: u64,
    /// Threads blocked on the condvar waiting for this build.
    waiters: usize,
    /// Set by the builder on success; the slot stays in the map until
    /// every registered waiter has claimed it.
    result: Option<Arc<PreparedDesign>>,
}

struct CacheInner {
    /// `(key, prepared)` in least-recently-used → most-recently-used
    /// order. Linear scans are fine: capacities are small (designs are
    /// megabyte-scale prepared artifacts, not cheap rows).
    entries: Vec<(u64, Arc<PreparedDesign>)>,
    /// Keys currently being compiled by some thread (single-flight).
    pending: HashMap<u64, Pending>,
    next_generation: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The cross-thread LRU cache. See the [module docs](self).
pub struct DesignCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    ready: Condvar,
}

impl DesignCache {
    /// Creates a cache holding at most `capacity` prepared designs
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        DesignCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner {
                entries: Vec::new(),
                pending: HashMap::new(),
                next_generation: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// Compiles + prepares `source` under `options`, or returns the
    /// cached result for an equivalent earlier request.
    ///
    /// # Errors
    ///
    /// Propagates compile and prepare errors; failures are not cached
    /// (the next request for the same key compiles again).
    pub fn get_or_compile(
        &self,
        name: &str,
        source: &str,
        options: &CompileOptions,
    ) -> Result<Arc<PreparedDesign>, FlowError> {
        let key = content_hash(source, options);
        let name = name.to_string();
        let source = source.to_string();
        let options = options.clone();
        self.get_or_prepare(key, move || {
            let program = nenya::lang::parse(&source)
                .map_err(|e| FlowError::Compile(CompileError::from(e)))?;
            let design = compile_program(&name, &program, &options)?;
            prepare_design(design)
        })
    }

    /// The generic single-flight lookup: returns the cached design for
    /// `key`, or runs `build` (outside the lock) and caches its result.
    /// Concurrent callers with the same key block until the first
    /// caller's build resolves, then reuse it.
    ///
    /// Accounting contract (locked in by the racer test below): one
    /// build is exactly one miss, and every waiter that reuses it is
    /// exactly one hit — even when the freshly built entry is evicted
    /// from the LRU list before a waiter wakes up. Waiters are handed
    /// the built design through the pending slot, never by re-probing
    /// the LRU list, so an eviction race can neither trigger a second
    /// compile nor skew the counters.
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error to the caller that ran it; blocked
    /// callers retry (at most one of them re-runs a failed build).
    pub fn get_or_prepare<F>(&self, key: u64, build: F) -> Result<Arc<PreparedDesign>, FlowError>
    where
        F: FnOnce() -> Result<PreparedDesign, FlowError>,
    {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let generation = 'probe: loop {
            if let Some(pos) = inner.entries.iter().position(|(k, _)| *k == key) {
                let entry = inner.entries.remove(pos);
                let prepared = entry.1.clone();
                inner.entries.push(entry);
                inner.hits += 1;
                return Ok(prepared);
            }
            let Some(pending) = inner.pending.get_mut(&key) else {
                // Nobody is building this key: become the builder.
                let generation = inner.next_generation;
                inner.next_generation += 1;
                inner.pending.insert(
                    key,
                    Pending {
                        generation,
                        waiters: 0,
                        result: None,
                    },
                );
                break 'probe generation;
            };
            // A finished build still being drained by its waiters is as
            // good as a cache entry: claim it without registering (no
            // further notification is coming for this slot).
            if let Some(prepared) = pending.result.clone() {
                inner.hits += 1;
                return Ok(prepared);
            }
            // Register with *this* build and wait for its outcome.
            let registered = pending.generation;
            pending.waiters += 1;
            loop {
                inner = self.ready.wait(inner).unwrap_or_else(|p| p.into_inner());
                match inner.pending.get_mut(&key) {
                    // Same build, still running.
                    Some(p) if p.generation == registered && p.result.is_none() => {}
                    // Same build, finished: claim the deposited design
                    // directly — it may already be evicted from the LRU
                    // list, which must not change the outcome.
                    Some(p) if p.generation == registered => {
                        let prepared = p.result.clone().expect("checked above");
                        p.waiters -= 1;
                        let drained = p.waiters == 0;
                        inner.hits += 1;
                        if drained {
                            inner.pending.remove(&key);
                        }
                        return Ok(prepared);
                    }
                    // The build we registered with failed (its slot was
                    // torn down, possibly replaced by a newer build):
                    // our registration is gone, so start over from the
                    // top of the probe loop.
                    _ => continue 'probe,
                }
            }
        };
        drop(inner);

        let built = build();

        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        match built {
            Ok(prepared) => {
                let prepared = Arc::new(prepared);
                inner.misses += 1;
                inner.entries.push((key, prepared.clone()));
                while inner.entries.len() > self.capacity {
                    inner.entries.remove(0);
                    inner.evictions += 1;
                }
                // Deliver to waiters through the slot; it outlives any
                // eviction of the LRU entry above.
                let pending = inner
                    .pending
                    .get_mut(&key)
                    .expect("builder's pending slot is only removed by the builder");
                debug_assert_eq!(pending.generation, generation);
                if pending.waiters == 0 {
                    inner.pending.remove(&key);
                } else {
                    pending.result = Some(prepared.clone());
                }
                self.ready.notify_all();
                Ok(prepared)
            }
            Err(e) => {
                // Failures are not cached; tearing the slot down sends
                // every waiter back to the probe loop, where exactly one
                // becomes the next builder.
                inner.pending.remove(&key);
                self.ready.notify_all();
                Err(e)
            }
        }
    }

    /// Whether `key` is currently cached (does not touch recency or
    /// counters).
    pub fn contains(&self, key: u64) -> bool {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.entries.iter().any(|(k, _)| *k == key)
    }

    /// One consistent snapshot of the counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.entries.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nenya::schedule::SchedulePolicy;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn cache_and_prepared_design_are_share_safe() {
        assert_send_sync::<DesignCache>();
        assert_send_sync::<PreparedDesign>();
    }

    fn tiny_source(constant: i64) -> String {
        format!("mem out[1]; void main() {{ out[0] = {constant}; }}")
    }

    #[test]
    fn hash_is_stable_across_whitespace() {
        let opts = CompileOptions::default();
        let a = content_hash("mem out[1];\nvoid   main() {\n  out[0] = 1;\n}", &opts);
        let b = content_hash("mem out[1]; void main() { out[0] = 1; }", &opts);
        let c = content_hash("  mem out[1];\t\tvoid main()\n{ out[0] = 1; }  ", &opts);
        assert_eq!(a, b);
        assert_eq!(a, c);
        // Content changes change the key.
        assert_ne!(a, content_hash("mem out[1]; void main() { out[0] = 2; }", &opts));
        // Token boundaries matter: "ab c" != "a bc".
        assert_ne!(content_hash("ab c", &opts), content_hash("a bc", &opts));
        // Option changes change the key.
        let wide = CompileOptions {
            width: 32,
            ..CompileOptions::default()
        };
        assert_ne!(a, content_hash("mem out[1]; void main() { out[0] = 1; }", &wide));
        let parts = CompileOptions {
            partitions: 2,
            ..CompileOptions::default()
        };
        assert_ne!(a, content_hash("mem out[1]; void main() { out[0] = 1; }", &parts));
        let opt = CompileOptions {
            optimize: true,
            ..CompileOptions::default()
        };
        assert_ne!(a, content_hash("mem out[1]; void main() { out[0] = 1; }", &opt));
    }

    #[test]
    fn every_distinct_option_combination_gets_a_distinct_key() {
        // The full grid of compile options that change the generated
        // design. Any two distinct combinations must produce distinct
        // keys — the tagged encoding makes adjacent-field aliasing
        // (e.g. a policy-name suffix bleeding into the optimize byte)
        // impossible by construction, and this locks it in.
        let source = "mem out[1]; void main() { out[0] = 1; }";
        let mut grid = Vec::new();
        for width in [8u32, 16, 24, 32] {
            for policy in [SchedulePolicy::List, SchedulePolicy::OneOpPerState] {
                for partitions in [1usize, 2, 3] {
                    for optimize in [false, true] {
                        grid.push(CompileOptions {
                            width,
                            policy,
                            partitions,
                            optimize,
                        });
                    }
                }
            }
        }
        for i in 0..grid.len() {
            for j in (i + 1)..grid.len() {
                assert_ne!(
                    content_hash(source, &grid[i]),
                    content_hash(source, &grid[j]),
                    "distinct options collide: {:?} vs {:?}",
                    grid[i],
                    grid[j]
                );
            }
        }
        // The same grid point always re-keys identically.
        for opts in &grid {
            assert_eq!(content_hash(source, opts), content_hash(source, opts));
        }
    }

    #[test]
    fn whitespace_variants_share_one_entry() {
        let cache = DesignCache::new(4);
        let opts = CompileOptions::default();
        cache
            .get_or_compile("t", "mem out[1]; void main() { out[0] = 1; }", &opts)
            .unwrap();
        cache
            .get_or_compile("t", "mem out[1];\n  void main() {\n    out[0] = 1;\n  }", &opts)
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let cache = DesignCache::new(2);
        let opts = CompileOptions::default();
        let key = |i| content_hash(&tiny_source(i), &opts);
        cache.get_or_compile("a", &tiny_source(1), &opts).unwrap();
        cache.get_or_compile("b", &tiny_source(2), &opts).unwrap();
        // Touch 1 so 2 becomes the LRU entry.
        cache.get_or_compile("a", &tiny_source(1), &opts).unwrap();
        cache.get_or_compile("c", &tiny_source(3), &opts).unwrap();
        assert!(cache.contains(key(1)), "recently used entry survived");
        assert!(!cache.contains(key(2)), "LRU entry evicted");
        assert!(cache.contains(key(3)));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn capacity_one_holds_exactly_the_last_design() {
        let cache = DesignCache::new(1);
        let opts = CompileOptions::default();
        cache.get_or_compile("a", &tiny_source(1), &opts).unwrap();
        cache.get_or_compile("a", &tiny_source(1), &opts).unwrap();
        cache.get_or_compile("b", &tiny_source(2), &opts).unwrap();
        cache.get_or_compile("a", &tiny_source(1), &opts).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 2);
        assert!(cache.contains(content_hash(&tiny_source(1), &opts)));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let cache = DesignCache::new(0);
        assert_eq!(cache.stats().capacity, 1);
    }

    #[test]
    fn compile_errors_propagate_and_are_not_cached() {
        let cache = DesignCache::new(2);
        let opts = CompileOptions::default();
        let bad = "this is not a program";
        assert!(cache.get_or_compile("bad", bad, &opts).is_err());
        assert!(!cache.contains(content_hash(bad, &opts)));
        // A later identical request compiles (and fails) again.
        assert!(cache.get_or_compile("bad", bad, &opts).is_err());
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn concurrent_same_key_requests_compile_once() {
        let cache = Arc::new(DesignCache::new(4));
        let builds = Arc::new(AtomicUsize::new(0));
        let opts = CompileOptions::default();
        let source = tiny_source(7);
        let key = content_hash(&source, &opts);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cache = cache.clone();
            let builds = builds.clone();
            let source = source.clone();
            let opts = opts.clone();
            handles.push(std::thread::spawn(move || {
                cache.get_or_prepare(key, move || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    // Slow the build down so the other threads genuinely
                    // arrive while it is pending.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    let program = nenya::lang::parse(&source)
                        .map_err(|e| FlowError::Compile(CompileError::from(e)))?;
                    let design = compile_program("c", &program, &opts)?;
                    prepare_design(design)
                })
            }));
        }
        for handle in handles {
            assert!(handle.join().unwrap().is_ok());
        }
        assert_eq!(builds.load(Ordering::SeqCst), 1, "single-flight compile");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3);
    }

    /// The eviction-race accounting contract: N racers on one slow key
    /// produce exactly 1 miss and N−1 hits, and every racer receives the
    /// *same* prepared design — even when LRU pressure evicts the fresh
    /// entry before the waiters wake up. Pressure threads hammer a
    /// capacity-1 cache with distinct keys for the whole build window,
    /// so any wake-up ordering that re-probed the LRU list (the old
    /// implementation) would recompile and double-count.
    #[test]
    fn racers_survive_eviction_with_one_miss_and_n_minus_one_hits() {
        const RACERS: usize = 8;
        let cache = Arc::new(DesignCache::new(1));
        let opts = CompileOptions::default();
        let source = tiny_source(9);
        let key = content_hash(&source, &opts);
        let builds = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let pressure_builds = Arc::new(AtomicUsize::new(0));

        // Distinct-key pressure: every build is its own miss and evicts
        // whatever the capacity-1 cache holds, including the racers'
        // freshly deposited entry.
        let mut pressure = Vec::new();
        for t in 0..3usize {
            let cache = cache.clone();
            let stop = stop.clone();
            let pressure_builds = pressure_builds.clone();
            let opts = opts.clone();
            pressure.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let constant = 1000 + (t as i64) * 1_000_000 + i as i64;
                    let source = tiny_source(constant);
                    let pkey = content_hash(&source, &opts);
                    let opts = opts.clone();
                    let pressure_builds = pressure_builds.clone();
                    cache
                        .get_or_prepare(pkey, move || {
                            pressure_builds.fetch_add(1, Ordering::SeqCst);
                            let program = nenya::lang::parse(&source)
                                .map_err(|e| FlowError::Compile(CompileError::from(e)))?;
                            let design = compile_program("p", &program, &opts)?;
                            prepare_design(design)
                        })
                        .unwrap();
                    i += 1;
                }
            }));
        }

        let mut racers = Vec::new();
        for _ in 0..RACERS {
            let cache = cache.clone();
            let builds = builds.clone();
            let source = source.clone();
            let opts = opts.clone();
            racers.push(std::thread::spawn(move || {
                cache
                    .get_or_prepare(key, move || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // A wide window so the waiters and the pressure
                        // threads are all genuinely in flight.
                        std::thread::sleep(std::time::Duration::from_millis(100));
                        let program = nenya::lang::parse(&source)
                            .map_err(|e| FlowError::Compile(CompileError::from(e)))?;
                        let design = compile_program("r", &program, &opts)?;
                        prepare_design(design)
                    })
                    .unwrap()
            }));
        }
        let results: Vec<Arc<PreparedDesign>> =
            racers.into_iter().map(|h| h.join().unwrap()).collect();
        stop.store(true, Ordering::SeqCst);
        for handle in pressure {
            handle.join().unwrap();
        }

        assert_eq!(builds.load(Ordering::SeqCst), 1, "racer key compiled once");
        for r in &results[1..] {
            assert!(
                Arc::ptr_eq(&results[0], r),
                "every racer shares the single build"
            );
        }
        let stats = cache.stats();
        let pressure_misses = pressure_builds.load(Ordering::SeqCst) as u64;
        assert_eq!(
            stats.misses,
            1 + pressure_misses,
            "one miss for the racer key, one per distinct pressure key"
        );
        assert_eq!(
            stats.hits,
            (RACERS - 1) as u64,
            "all pressure keys are distinct, so every hit is a racer"
        );
    }

    /// Campaign-shard contention: N worker threads loop over a small key
    /// set (larger than the capacity, so evictions churn constantly) for
    /// many iterations. Whatever interleaving the scheduler produces,
    /// the accounting identity must hold exactly: every request is one
    /// hit or one miss, and every miss is one real build — same-design
    /// shards must ride the single-flight path, never compile twice for
    /// one miss, and never lose a counter update to a race.
    #[test]
    fn sharded_hammer_keeps_stats_exact() {
        const THREADS: usize = 8;
        const ITERS: usize = 40;
        const KEYS: usize = 5;
        let cache = Arc::new(DesignCache::new(2));
        let opts = CompileOptions::default();
        let builds = Arc::new(AtomicUsize::new(0));

        let mut workers = Vec::new();
        for t in 0..THREADS {
            let cache = cache.clone();
            let builds = builds.clone();
            let opts = opts.clone();
            workers.push(std::thread::spawn(move || {
                for i in 0..ITERS {
                    // Stride by a thread-dependent step so the threads
                    // disagree about which keys are hot at any moment.
                    let which = (i * (t + 1)) % KEYS;
                    let source = tiny_source(which as i64);
                    let key = content_hash(&source, &opts);
                    let builds = builds.clone();
                    let opts = opts.clone();
                    let prepared = cache
                        .get_or_prepare(key, move || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            let program = nenya::lang::parse(&source)
                                .map_err(|e| FlowError::Compile(CompileError::from(e)))?;
                            let design = compile_program("h", &program, &opts)?;
                            prepare_design(design)
                        })
                        .unwrap();
                    // Each key's program stores a distinct constant, so a
                    // cross-wired single-flight handoff would be visible.
                    assert_eq!(prepared.design().name, "h");
                }
            }));
        }
        for worker in workers {
            worker.join().unwrap();
        }

        let stats = cache.stats();
        let requests = (THREADS * ITERS) as u64;
        assert_eq!(
            stats.hits + stats.misses,
            requests,
            "every request is exactly one hit or one miss"
        );
        assert_eq!(
            stats.misses,
            builds.load(Ordering::SeqCst) as u64,
            "every miss is exactly one build (single-flight under churn)"
        );
        assert!(
            stats.misses >= KEYS as u64,
            "each distinct key compiled at least once"
        );
        assert_eq!(stats.entries, 2);
        assert_eq!(
            stats.evictions,
            stats.misses - stats.entries as u64,
            "every completed build beyond capacity evicted exactly one entry"
        );
    }
}
