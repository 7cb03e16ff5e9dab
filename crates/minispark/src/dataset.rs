//! Lazy, partitioned datasets with Spark-style narrow and wide operations.
//!
//! A [`Dataset<T>`] is a handle on a logical plan. Narrow transformations
//! (`map`, `filter`, `flat_map`, `map_partitions`, `union`) compose per
//! partition and never materialize intermediate data. Wide transformations
//! (`group_by_key`, `reduce_by_key`, `join`, `sort_by_key`, `distinct`)
//! insert a **shuffle**: the parent's partitions are computed in parallel,
//! hash-bucketed by key, and cached once (a `OnceLock`, playing the role of
//! Spark's shuffle files) so that every downstream consumer — and every
//! output partition — reads the same materialization.
//!
//! Actions (`collect`, `count`, `fold`) drive the plan with an
//! [`ExecContext`], which supplies the worker pool and records metrics.
//! Every action routes through the context's fallible
//! `try_parallel_indexed` primitive, so a panicking user closure fails its
//! stage with a structured [`TaskError`](crate::exec::TaskError) — after
//! the context's retry budget — instead of tearing down the process. The
//! `try_*` action variants surface that error; the plain variants keep the
//! historical panicking contract for callers that treat stage failure as a
//! bug.
//!
//! **Zero-copy data plane.** Plan nodes exchange [`Partition<T>`] handles
//! (`Arc`-shared row vectors), so materialized data — shuffle buckets, sort
//! output, cache contents, source chunks — is built once and read by every
//! consumer through a refcount bump. Rows are deep-copied only when a
//! consumer needs ownership of a still-shared partition, and each such copy
//! is counted in [`ExecMetrics::rows_cloned`](crate::exec::ExecMetrics).
//! Wide operations aggregate through insertion-ordered index maps, so their
//! output order is the deterministic first-seen key order, independent of
//! hasher and thread count.

use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::error::{Result, SparkError};
use crate::exec::ExecContext;
use crate::hash::FixedState;
use crate::partition::Partition;

/// Blanket bound for element types flowing through the engine.
pub trait Data: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> Data for T {}

/// A logical plan node producing partitions of `T`. Computing a partition
/// yields a shared handle; nodes that pin materialized state (source,
/// shuffle, sort, cache) serve every call with an `Arc` clone of the same
/// rows.
trait Plan<T: Data>: Send + Sync {
    fn num_partitions(&self) -> usize;
    fn compute(&self, ctx: &ExecContext, partition: usize) -> Partition<T>;
}

/// A lazy, partitioned dataset.
#[derive(Clone)]
pub struct Dataset<T: Data> {
    plan: Arc<dyn Plan<T>>,
}

impl<T: Data> std::fmt::Debug for Dataset<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The plan is a trait object; its partition count is the one thing
        // every node can report without executing.
        f.debug_struct("Dataset")
            .field("partitions", &self.plan.num_partitions())
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Plan node implementations
// ---------------------------------------------------------------------------

struct SourcePlan<T> {
    partitions: Vec<Partition<T>>,
}

impl<T: Data> Plan<T> for SourcePlan<T> {
    fn num_partitions(&self) -> usize {
        self.partitions.len()
    }
    fn compute(&self, _ctx: &ExecContext, partition: usize) -> Partition<T> {
        // Arc bump: the source keeps its rows for recompute/retry, readers
        // share them.
        self.partitions[partition].clone()
    }
}

struct MapPartitionsPlan<T: Data, U: Data> {
    parent: Arc<dyn Plan<T>>,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(Vec<T>) -> Vec<U> + Send + Sync>,
}

impl<T: Data, U: Data> Plan<U> for MapPartitionsPlan<T, U> {
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn compute(&self, ctx: &ExecContext, partition: usize) -> Partition<U> {
        // The public closure consumes owned rows; `into_vec` moves them
        // when the parent partition is unshared and clones (counted) when
        // it is pinned elsewhere.
        let rows = self.parent.compute(ctx, partition).into_vec(&ctx.metrics);
        Partition::new((self.f)(rows))
    }
}

/// Borrow-based sibling of [`MapPartitionsPlan`] for engine-internal
/// consumers (wide-op aggregation) that only need to *read* the parent's
/// rows: skips the ownership transfer entirely, so reading a shared shuffle
/// bucket clones nothing.
struct MapPartitionsRefPlan<T: Data, U: Data> {
    parent: Arc<dyn Plan<T>>,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(&[T]) -> Vec<U> + Send + Sync>,
}

impl<T: Data, U: Data> Plan<U> for MapPartitionsRefPlan<T, U> {
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn compute(&self, ctx: &ExecContext, partition: usize) -> Partition<U> {
        Partition::new((self.f)(&self.parent.compute(ctx, partition)))
    }
}

struct UnionPlan<T: Data> {
    left: Arc<dyn Plan<T>>,
    right: Arc<dyn Plan<T>>,
}

impl<T: Data> Plan<T> for UnionPlan<T> {
    fn num_partitions(&self) -> usize {
        self.left.num_partitions() + self.right.num_partitions()
    }
    fn compute(&self, ctx: &ExecContext, partition: usize) -> Partition<T> {
        let n_left = self.left.num_partitions();
        if partition < n_left {
            self.left.compute(ctx, partition)
        } else {
            self.right.compute(ctx, partition - n_left)
        }
    }
}

/// Hash shuffle: materializes the parent once, bucketing rows by key hash.
/// The fixed-seed hasher makes bucket assignment identical across plans,
/// processes, and runs — the co-partitioning contract joins rely on.
struct ShufflePlan<K: Data + Hash + Eq, V: Data> {
    parent: Arc<dyn Plan<(K, V)>>,
    num_out: usize,
    hasher: FixedState,
    cache: OnceLock<Vec<Partition<(K, V)>>>,
}

impl<K: Data + Hash + Eq, V: Data> ShufflePlan<K, V> {
    fn buckets(&self, ctx: &ExecContext) -> &Vec<Partition<(K, V)>> {
        self.cache.get_or_init(|| {
            // ordering: independent statistic counter, never a synchronization point
            ctx.metrics.shuffles.fetch_add(1, Ordering::Relaxed);
            let n_in = self.parent.num_partitions();
            // Map side: compute every input partition in parallel and
            // pre-bucket it locally.
            let per_input: Vec<Vec<Vec<(K, V)>>> = ctx.parallel_indexed(n_in, |p| {
                let rows = self.parent.compute(ctx, p).into_vec(&ctx.metrics);
                let mut local: Vec<Vec<(K, V)>> = (0..self.num_out).map(|_| Vec::new()).collect();
                for (k, v) in rows {
                    let b = (self.hasher.hash_one(&k) % self.num_out as u64) as usize;
                    local[b].push((k, v));
                }
                local
            });
            // Transpose to bucket-major (Vec headers only, no row moves),
            // behind per-bucket mutexes so the reduce side can take them
            // from parallel tasks.
            let mut by_bucket: Vec<Vec<Vec<(K, V)>>> =
                (0..self.num_out).map(|_| Vec::with_capacity(n_in)).collect();
            for local in per_input {
                for (b, rows) in local.into_iter().enumerate() {
                    by_bucket[b].push(rows);
                }
            }
            let by_bucket: Vec<Mutex<Vec<_>>> = by_bucket.into_iter().map(Mutex::new).collect();
            // Reduce side: concatenate each output bucket in parallel —
            // buckets are independent, so they scale across the pool
            // instead of serializing on one thread. Input-partition order
            // is preserved within each bucket, keeping output deterministic.
            let out: Vec<Partition<(K, V)>> = ctx.parallel_indexed(self.num_out, |b| {
                let pieces = std::mem::take(
                    &mut *by_bucket[b].lock().unwrap_or_else(PoisonError::into_inner),
                );
                let total = pieces.iter().map(Vec::len).sum();
                let mut rows: Vec<(K, V)> = Vec::with_capacity(total);
                for mut piece in pieces {
                    rows.append(&mut piece);
                }
                Partition::new(rows)
            });
            let moved: u64 = out.iter().map(|p| p.len() as u64).sum();
            // ordering: independent statistic counter, never a synchronization point
            ctx.metrics.shuffled_records.fetch_add(moved, Ordering::Relaxed);
            out
        })
    }
}

impl<K: Data + Hash + Eq, V: Data> Plan<(K, V)> for ShufflePlan<K, V> {
    fn num_partitions(&self) -> usize {
        self.num_out
    }
    fn compute(&self, ctx: &ExecContext, partition: usize) -> Partition<(K, V)> {
        // Arc bump: consumers read the pinned bucket, they don't copy it.
        self.buckets(ctx)[partition].clone()
    }
}

/// Zip two co-partitioned plans through a combiner — the join back-end.
/// The combiner borrows both sides, so reading shared shuffle buckets
/// copies nothing; it clones only the rows it emits.
struct ZipPartitionsPlan<A: Data, B: Data, U: Data> {
    left: Arc<dyn Plan<A>>,
    right: Arc<dyn Plan<B>>,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(&[A], &[B]) -> Vec<U> + Send + Sync>,
}

impl<A: Data, B: Data, U: Data> Plan<U> for ZipPartitionsPlan<A, B, U> {
    fn num_partitions(&self) -> usize {
        self.left.num_partitions()
    }
    fn compute(&self, ctx: &ExecContext, partition: usize) -> Partition<U> {
        Partition::new((self.f)(
            &self.left.compute(ctx, partition),
            &self.right.compute(ctx, partition),
        ))
    }
}

/// Global sort: sorts each parent partition in parallel, k-way merges the
/// runs, and range-partitions the merged stream. Materializes once.
struct SortPlan<T: Data, K: Data + Ord> {
    parent: Arc<dyn Plan<T>>,
    key: Arc<dyn Fn(&T) -> K + Send + Sync>,
    num_out: usize,
    cache: OnceLock<Vec<Partition<T>>>,
}

impl<T: Data, K: Data + Ord> SortPlan<T, K> {
    /// Sort each input partition in parallel, then k-way merge the sorted
    /// runs through a binary heap — O(n log k) merge instead of re-sorting
    /// the concatenation, and the output streams straight into the
    /// range-partitioned chunks.
    fn sorted(&self, ctx: &ExecContext) -> Vec<Partition<T>> {
        let n_in = self.parent.num_partitions();
        let runs: Vec<Vec<T>> = ctx.parallel_indexed(n_in, |p| {
            let mut rows = self.parent.compute(ctx, p).into_vec(&ctx.metrics);
            rows.sort_by_key(|a| (self.key)(a));
            rows
        });
        let total: usize = runs.iter().map(Vec::len).sum();
        let chunk = total.div_ceil(self.num_out).max(1);
        let mut iters: Vec<std::vec::IntoIter<T>> =
            runs.into_iter().map(Vec::into_iter).collect();
        // Heap of (key, run): `Reverse` turns the max-heap into a min-heap;
        // the run index tie-breaks equal keys in run order, which — with
        // stable per-run sorts — keeps the merge as stable as the old
        // flatten-and-resort.
        let mut heads: Vec<Option<T>> = Vec::with_capacity(iters.len());
        let mut heap: BinaryHeap<std::cmp::Reverse<(K, usize)>> =
            BinaryHeap::with_capacity(iters.len());
        for (run, it) in iters.iter_mut().enumerate() {
            match it.next() {
                Some(x) => {
                    heap.push(std::cmp::Reverse(((self.key)(&x), run)));
                    heads.push(Some(x));
                }
                None => heads.push(None),
            }
        }
        let mut out: Vec<Partition<T>> = Vec::with_capacity(self.num_out);
        let mut cur: Vec<T> = Vec::with_capacity(chunk.min(total.max(1)));
        while let Some(std::cmp::Reverse((_, run))) = heap.pop() {
            if let Some(x) = heads[run].take() {
                cur.push(x);
            }
            if let Some(next) = iters[run].next() {
                heap.push(std::cmp::Reverse(((self.key)(&next), run)));
                heads[run] = Some(next);
            }
            if cur.len() == chunk {
                out.push(Partition::new(std::mem::take(&mut cur)));
            }
        }
        if !cur.is_empty() {
            out.push(Partition::new(cur));
        }
        // Keep the partition count contract: trailing ranges may be empty.
        while out.len() < self.num_out {
            out.push(Partition::empty());
        }
        out
    }
}

impl<T: Data, K: Data + Ord> Plan<T> for SortPlan<T, K> {
    fn num_partitions(&self) -> usize {
        self.num_out
    }
    fn compute(&self, ctx: &ExecContext, partition: usize) -> Partition<T> {
        self.cache.get_or_init(|| self.sorted(ctx))[partition].clone()
    }
}

/// Materialize-once cache: the first access computes every parent
/// partition in parallel and pins the result, so iterative consumers (the
/// day-by-day experiment loops) pay the upstream cost once — Spark's
/// `.cache()`. Serving a cached partition is an `Arc` bump, not a copy.
struct CachePlan<T: Data> {
    parent: Arc<dyn Plan<T>>,
    cache: OnceLock<Vec<Partition<T>>>,
}

impl<T: Data> Plan<T> for CachePlan<T> {
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn compute(&self, ctx: &ExecContext, partition: usize) -> Partition<T> {
        self.cache
            .get_or_init(|| {
                let n = self.parent.num_partitions();
                ctx.parallel_indexed(n, |p| self.parent.compute(ctx, p))
            })[partition]
            .clone()
    }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

impl<T: Data> Dataset<T> {
    /// Create a dataset from a vector, split into `num_partitions` chunks.
    pub fn from_vec(data: Vec<T>, num_partitions: usize) -> Result<Self> {
        if num_partitions == 0 {
            return Err(SparkError::invalid("num_partitions must be positive"));
        }
        let chunk = data.len().div_ceil(num_partitions).max(1);
        let mut partitions: Vec<Partition<T>> = Vec::with_capacity(num_partitions);
        let mut it = data.into_iter().peekable();
        for _ in 0..num_partitions {
            let mut p = Vec::with_capacity(chunk);
            for _ in 0..chunk {
                match it.next() {
                    Some(x) => p.push(x),
                    None => break,
                }
            }
            partitions.push(Partition::new(p));
        }
        Ok(Dataset { plan: Arc::new(SourcePlan { partitions }) })
    }

    /// Create a dataset directly from already-materialized [`Partition`]s.
    ///
    /// No rows are copied: the plan pins the given arcs and downstream
    /// consumers read them by refcount bump. This is the zero-copy entry
    /// point for decoded `cdipack` columns
    /// ([`crate::store::PackedTable`]) — the decode materializes each
    /// column once, and every plan built over it shares that one
    /// materialization.
    pub fn from_partitions(partitions: Vec<Partition<T>>) -> Result<Self> {
        if partitions.is_empty() {
            return Err(SparkError::invalid("at least one partition is required"));
        }
        Ok(Dataset { plan: Arc::new(SourcePlan { partitions }) })
    }

    /// Number of partitions in the current plan.
    pub fn num_partitions(&self) -> usize {
        self.plan.num_partitions()
    }

    /// Element-wise transformation (narrow).
    pub fn map<U: Data>(&self, f: impl Fn(T) -> U + Send + Sync + 'static) -> Dataset<U> {
        let f = Arc::new(f);
        self.map_partitions(move |rows| rows.into_iter().map(|x| f(x)).collect())
    }

    /// Keep elements satisfying the predicate (narrow).
    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync + 'static) -> Dataset<T> {
        let f = Arc::new(f);
        self.map_partitions(move |rows| rows.into_iter().filter(|x| f(x)).collect())
    }

    /// One-to-many transformation (narrow).
    pub fn flat_map<U: Data, I>(
        &self,
        f: impl Fn(T) -> I + Send + Sync + 'static,
    ) -> Dataset<U>
    where
        I: IntoIterator<Item = U>,
    {
        let f = Arc::new(f);
        self.map_partitions(move |rows| rows.into_iter().flat_map(|x| f(x)).collect())
    }

    /// Whole-partition transformation (narrow) — the primitive the other
    /// narrow operations are built on.
    pub fn map_partitions<U: Data>(
        &self,
        f: impl Fn(Vec<T>) -> Vec<U> + Send + Sync + 'static,
    ) -> Dataset<U> {
        Dataset {
            plan: Arc::new(MapPartitionsPlan { parent: Arc::clone(&self.plan), f: Arc::new(f) }),
        }
    }

    /// Engine-internal borrow-based partition map: the closure reads the
    /// parent's rows in place, so consuming a shared (cached/shuffled)
    /// partition never deep-copies it.
    fn map_partitions_ref<U: Data>(
        &self,
        f: impl Fn(&[T]) -> Vec<U> + Send + Sync + 'static,
    ) -> Dataset<U> {
        Dataset {
            plan: Arc::new(MapPartitionsRefPlan { parent: Arc::clone(&self.plan), f: Arc::new(f) }),
        }
    }

    /// Concatenate two datasets (narrow; partitions are appended).
    pub fn union(&self, other: &Dataset<T>) -> Dataset<T> {
        Dataset {
            plan: Arc::new(UnionPlan {
                left: Arc::clone(&self.plan),
                right: Arc::clone(&other.plan),
            }),
        }
    }

    /// Materialize this dataset once and serve all later computations from
    /// the pinned result (Spark's `.cache()`). Worth it exactly when the
    /// dataset is consumed more than once and recomputation is expensive.
    pub fn cache(&self) -> Dataset<T> {
        Dataset {
            plan: Arc::new(CachePlan { parent: Arc::clone(&self.plan), cache: OnceLock::new() }),
        }
    }

    /// Attach a key to every element, producing a pair dataset.
    pub fn key_by<K: Data + Hash + Eq>(
        &self,
        f: impl Fn(&T) -> K + Send + Sync + 'static,
    ) -> Dataset<(K, T)> {
        self.map(move |x| (f(&x), x))
    }

    /// Globally sort by a key (wide; materializes once).
    pub fn sort_by_key<K: Data + Ord>(
        &self,
        num_partitions: usize,
        key: impl Fn(&T) -> K + Send + Sync + 'static,
    ) -> Result<Dataset<T>> {
        if num_partitions == 0 {
            return Err(SparkError::invalid("num_partitions must be positive"));
        }
        Ok(Dataset {
            plan: Arc::new(SortPlan {
                parent: Arc::clone(&self.plan),
                key: Arc::new(key),
                num_out: num_partitions,
                cache: OnceLock::new(),
            }),
        })
    }

    /// Action: gather all elements (partition order preserved), surfacing a
    /// poisoned task as an error instead of a panic.
    pub fn try_collect(&self, ctx: &ExecContext) -> Result<Vec<T>> {
        let n = self.plan.num_partitions();
        let plan = &self.plan;
        let parts = ctx.try_parallel_indexed(n, |p| plan.compute(ctx, p))?;
        let total = parts.iter().map(|p| p.len()).sum();
        let mut out = Vec::with_capacity(total);
        for part in parts {
            out.append(&mut part.into_vec(&ctx.metrics));
        }
        Ok(out)
    }

    /// Action: gather all elements (partition order preserved). Panics if a
    /// task exhausts its retries; use [`Dataset::try_collect`] to handle
    /// stage failure gracefully.
    pub fn collect(&self, ctx: &ExecContext) -> Vec<T> {
        match self.try_collect(ctx) {
            Ok(out) => out,
            // lint-allow(R1): collect(): documented panicking twin of try_collect(); panic on exhausted retries is the API contract
            Err(e) => panic!("{e}"),
        }
    }

    /// Action: count elements, surfacing a poisoned task as an error.
    pub fn try_count(&self, ctx: &ExecContext) -> Result<usize> {
        let n = self.plan.num_partitions();
        let plan = &self.plan;
        Ok(ctx.try_parallel_indexed(n, |p| plan.compute(ctx, p).len())?.into_iter().sum())
    }

    /// Action: count elements. Panics if a task exhausts its retries.
    pub fn count(&self, ctx: &ExecContext) -> usize {
        match self.try_count(ctx) {
            Ok(n) => n,
            // lint-allow(R1): count(): documented panicking twin of try_count()
            Err(e) => panic!("{e}"),
        }
    }

    /// Action: fold all elements with a per-partition accumulator and a
    /// merge step (both must be associative-friendly with `init`),
    /// surfacing a poisoned task as an error.
    pub fn try_fold<A: Data>(
        &self,
        ctx: &ExecContext,
        init: A,
        fold: impl Fn(A, T) -> A + Send + Sync,
        merge: impl Fn(A, A) -> A,
    ) -> Result<A> {
        let n = self.plan.num_partitions();
        let plan = &self.plan;
        let partials = ctx.try_parallel_indexed(n, |p| {
            plan.compute(ctx, p)
                .into_vec(&ctx.metrics)
                .into_iter()
                .fold(init.clone(), &fold)
        })?;
        Ok(partials.into_iter().fold(init, merge))
    }

    /// Action: fold all elements with a per-partition accumulator and a
    /// merge step. Panics if a task exhausts its retries.
    pub fn fold<A: Data>(
        &self,
        ctx: &ExecContext,
        init: A,
        fold: impl Fn(A, T) -> A + Send + Sync,
        merge: impl Fn(A, A) -> A,
    ) -> A {
        match self.try_fold(ctx, init, fold, merge) {
            Ok(a) => a,
            // lint-allow(R1): fold(): documented panicking twin of try_fold()
            Err(e) => panic!("{e}"),
        }
    }
}

impl<T: Data + Hash + Eq> Dataset<T> {
    /// Remove duplicates (wide; one shuffle).
    pub fn distinct(&self, num_partitions: usize) -> Result<Dataset<T>> {
        Ok(self
            .map(|x| (x, ()))
            .reduce_by_key(num_partitions, |_, _| ())?
            .map(|(k, _)| k))
    }
}

/// Combine rows by key with a first-seen-ordered index map: values land in
/// a vector in the order their keys first appear, while a pre-sized hash
/// index finds the slot for repeats — one pass, no remove-and-reinsert
/// double hashing, and the output order is deterministic regardless of
/// hasher internals or thread count. Keys are cloned once per *distinct*
/// key, values once per row (the closure needs owned values).
fn combine_by_key<K, V>(rows: &[(K, V)], f: &(impl Fn(V, V) -> V + ?Sized)) -> Vec<(K, V)>
where
    K: Data + Hash + Eq,
    V: Data,
{
    let mut index: HashMap<&K, usize, FixedState> =
        HashMap::with_capacity_and_hasher(rows.len(), FixedState);
    let mut out: Vec<(K, Option<V>)> = Vec::new();
    for (k, v) in rows {
        match index.entry(k) {
            Entry::Occupied(e) => {
                let slot = &mut out[*e.get()].1;
                // `take` + `map` keeps the combine panic-free: the slot is
                // always occupied, but an Option round-trip costs nothing
                // and avoids an unwrap.
                *slot = slot.take().map(|prev| f(prev, v.clone()));
            }
            Entry::Vacant(e) => {
                e.insert(out.len());
                out.push((k.clone(), Some(v.clone())));
            }
        }
    }
    out.into_iter().filter_map(|(k, v)| v.map(|v| (k, v))).collect()
}

impl<K: Data + Hash + Eq, V: Data> Dataset<(K, V)> {
    /// Insert a hash shuffle with `num_partitions` output buckets.
    fn shuffle(&self, num_partitions: usize) -> Result<Dataset<(K, V)>> {
        if num_partitions == 0 {
            return Err(SparkError::invalid("num_partitions must be positive"));
        }
        Ok(Dataset {
            plan: Arc::new(ShufflePlan {
                parent: Arc::clone(&self.plan),
                num_out: num_partitions,
                // The fixed-seed hasher keeps co-partitioning consistent
                // across the two sides of a join — and across processes,
                // so committed results are reproducible.
                hasher: FixedState,
                cache: OnceLock::new(),
            }),
        })
    }

    /// Group values by key (wide; one shuffle). Output order within each
    /// partition is the first-seen key order — deterministic across runs.
    pub fn group_by_key(&self, num_partitions: usize) -> Result<Dataset<(K, Vec<V>)>> {
        let shuffled = self.shuffle(num_partitions)?;
        Ok(shuffled.map_partitions_ref(|rows| {
            let mut index: HashMap<&K, usize, FixedState> =
                HashMap::with_capacity_and_hasher(rows.len(), FixedState);
            let mut out: Vec<(K, Vec<V>)> = Vec::new();
            for (k, v) in rows {
                match index.entry(k) {
                    Entry::Occupied(e) => out[*e.get()].1.push(v.clone()),
                    Entry::Vacant(e) => {
                        e.insert(out.len());
                        out.push((k.clone(), vec![v.clone()]));
                    }
                }
            }
            out
        }))
    }

    /// Reduce values per key (wide; map-side combine then one shuffle).
    /// Output order within each partition is the first-seen key order.
    pub fn reduce_by_key(
        &self,
        num_partitions: usize,
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
    ) -> Result<Dataset<(K, V)>> {
        let f = Arc::new(f);
        // Map-side combine shrinks shuffle volume, as in Spark.
        let f1 = Arc::clone(&f);
        let combined = self.map_partitions_ref(move |rows| combine_by_key(rows, f1.as_ref()));
        let shuffled = combined.shuffle(num_partitions)?;
        Ok(shuffled.map_partitions_ref(move |rows| combine_by_key(rows, f.as_ref())))
    }

    /// Inner hash join (wide; both sides shuffled to co-partition). The
    /// build side is indexed by *borrowed* keys, so only emitted rows are
    /// cloned.
    pub fn join<W: Data>(
        &self,
        other: &Dataset<(K, W)>,
        num_partitions: usize,
    ) -> Result<Dataset<(K, (V, W))>> {
        let left = self.shuffle(num_partitions)?;
        let right = other.shuffle(num_partitions)?;
        Ok(Dataset {
            plan: Arc::new(ZipPartitionsPlan {
                left: Arc::clone(&left.plan),
                right: Arc::clone(&right.plan),
                f: Arc::new(|l: &[(K, V)], r: &[(K, W)]| {
                    let mut table: HashMap<&K, Vec<&W>, FixedState> =
                        HashMap::with_capacity_and_hasher(r.len(), FixedState);
                    for (k, w) in r {
                        table.entry(k).or_default().push(w);
                    }
                    let mut out = Vec::new();
                    for (k, v) in l {
                        if let Some(ws) = table.get(k) {
                            for &w in ws {
                                out.push((k.clone(), (v.clone(), w.clone())));
                            }
                        }
                    }
                    out
                }),
            }),
        })
    }

    /// Action: collect into a `HashMap` (last value wins on duplicate
    /// keys), surfacing a poisoned task as an error.
    pub fn try_collect_map(&self, ctx: &ExecContext) -> Result<HashMap<K, V>> {
        Ok(self.try_collect(ctx)?.into_iter().collect())
    }

    /// Action: collect into a `HashMap` (last value wins on duplicate keys).
    /// Panics if a task exhausts its retries.
    pub fn collect_map(&self, ctx: &ExecContext) -> HashMap<K, V> {
        self.collect(ctx).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ExecContext {
        ExecContext::with_threads(4)
    }

    #[test]
    fn from_vec_partitioning() {
        let d = Dataset::from_vec((0..10).collect(), 3).unwrap();
        assert_eq!(d.num_partitions(), 3);
        assert_eq!(d.collect(&ctx()), (0..10).collect::<Vec<_>>());
        assert!(Dataset::<i32>::from_vec(vec![], 0).is_err());
    }

    #[test]
    fn empty_and_oversized_partitioning() {
        let d = Dataset::<i32>::from_vec(vec![], 4).unwrap();
        assert_eq!(d.count(&ctx()), 0);
        let d = Dataset::from_vec(vec![1, 2], 8).unwrap();
        assert_eq!(d.num_partitions(), 8);
        assert_eq!(d.collect(&ctx()), vec![1, 2]);
    }

    #[test]
    fn narrow_chain_composes() {
        let d = Dataset::from_vec((1..=100).collect::<Vec<i64>>(), 4).unwrap();
        let out = d
            .map(|x| x * 2)
            .filter(|x| x % 3 == 0)
            .flat_map(|x| vec![x, -x])
            .collect(&ctx());
        let expected: Vec<i64> = (1..=100i64)
            .map(|x| x * 2)
            .filter(|x| x % 3 == 0)
            .flat_map(|x| vec![x, -x])
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn union_concatenates() {
        let a = Dataset::from_vec(vec![1, 2], 1).unwrap();
        let b = Dataset::from_vec(vec![3, 4], 2).unwrap();
        let u = a.union(&b);
        assert_eq!(u.num_partitions(), 3);
        assert_eq!(u.collect(&ctx()), vec![1, 2, 3, 4]);
    }

    #[test]
    fn count_and_fold() {
        let d = Dataset::from_vec((1..=100).collect::<Vec<i64>>(), 7).unwrap();
        assert_eq!(d.count(&ctx()), 100);
        let sum = d.fold(&ctx(), 0i64, |a, x| a + x, |a, b| a + b);
        assert_eq!(sum, 5050);
    }

    #[test]
    fn group_by_key_collects_all_values() {
        let pairs: Vec<(u32, u32)> = (0..100).map(|i| (i % 5, i)).collect();
        let d = Dataset::from_vec(pairs, 4).unwrap();
        let grouped = d.group_by_key(3).unwrap().collect(&ctx());
        assert_eq!(grouped.len(), 5);
        for (k, vs) in grouped {
            assert_eq!(vs.len(), 20, "key {k}");
            assert!(vs.iter().all(|v| v % 5 == k));
        }
    }

    #[test]
    fn reduce_by_key_sums() {
        let pairs: Vec<(u32, u64)> = (0..1000u64).map(|i| ((i % 10) as u32, i)).collect();
        let d = Dataset::from_vec(pairs, 8).unwrap();
        let reduced = d.reduce_by_key(4, |a, b| a + b).unwrap().collect_map(&ctx());
        assert_eq!(reduced.len(), 10);
        for (k, sum) in reduced {
            let expected: u64 = (0..1000u64).filter(|i| i % 10 == k as u64).sum();
            assert_eq!(sum, expected, "key {k}");
        }
    }

    #[test]
    fn map_side_combine_reduces_shuffle_volume() {
        let pairs: Vec<(u32, u64)> = (0..1000u64).map(|i| ((i % 4) as u32, 1)).collect();
        let d = Dataset::from_vec(pairs, 8).unwrap();
        let c = ctx();
        let reduced = d.reduce_by_key(4, |a, b| a + b).unwrap();
        let _ = reduced.collect(&c);
        let m = c.metrics.snapshot();
        assert_eq!(m.shuffles, 1);
        // Without map-side combine 1000 records would cross the shuffle; with
        // it at most 8 partitions × 4 keys.
        assert!(m.shuffled_records <= 32, "shuffled {}", m.shuffled_records);
    }

    #[test]
    fn join_matches_expected_pairs() {
        let left = Dataset::from_vec(vec![(1, "a"), (2, "b"), (3, "c"), (2, "B")], 2).unwrap();
        let right = Dataset::from_vec(vec![(2, 20), (3, 30), (4, 40), (2, 21)], 3).unwrap();
        let joined = left.join(&right, 4).unwrap();
        let mut out = joined.collect(&ctx());
        out.sort_by_key(|(k, (v, w))| (*k, v.to_string(), *w));
        assert_eq!(
            out,
            vec![
                (2, ("B", 20)),
                (2, ("B", 21)),
                (2, ("b", 20)),
                (2, ("b", 21)),
                (3, ("c", 30)),
            ]
        );
    }

    #[test]
    fn sort_by_key_globally_orders() {
        let data: Vec<i32> = vec![5, 3, 9, 1, 7, 2, 8, 6, 4, 0];
        let d = Dataset::from_vec(data, 3).unwrap();
        let sorted = d.sort_by_key(4, |x| *x).unwrap();
        assert_eq!(sorted.num_partitions(), 4);
        assert_eq!(sorted.collect(&ctx()), (0..10).collect::<Vec<_>>());
        assert!(d.sort_by_key(0, |x| *x).is_err());
    }

    #[test]
    fn distinct_removes_duplicates() {
        let d = Dataset::from_vec(vec![1, 2, 2, 3, 3, 3, 1], 3).unwrap();
        let mut out = d.distinct(2).unwrap().collect(&ctx());
        out.sort_unstable();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn key_by_attaches_keys() {
        let d = Dataset::from_vec(vec!["apple", "banana", "avocado"], 2).unwrap();
        let keyed = d.key_by(|s| s.as_bytes()[0]);
        let grouped = keyed.group_by_key(2).unwrap().collect(&ctx());
        let a_group = grouped.iter().find(|(k, _)| *k == b'a').unwrap();
        assert_eq!(a_group.1.len(), 2);
    }

    #[test]
    fn shuffle_cache_shared_across_consumers() {
        let pairs: Vec<(u32, u32)> = (0..100).map(|i| (i % 5, i)).collect();
        let d = Dataset::from_vec(pairs, 4).unwrap();
        let grouped = d.group_by_key(3).unwrap();
        let c = ctx();
        let _ = grouped.count(&c);
        let _ = grouped.collect(&c);
        let m = c.metrics.snapshot();
        assert_eq!(m.shuffles, 1, "second action reuses the materialized shuffle");
    }

    #[test]
    fn cache_computes_upstream_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let d = Dataset::from_vec((0..100).collect::<Vec<i64>>(), 4).unwrap();
        let expensive = d.map(|x| {
            CALLS.fetch_add(1, Ordering::Relaxed);
            x * 2
        });
        let cached = expensive.cache();
        let c = ctx();
        let first = cached.collect(&c);
        let calls_after_first = CALLS.load(Ordering::Relaxed);
        assert_eq!(calls_after_first, 100);
        let second = cached.collect(&c);
        assert_eq!(first, second);
        assert_eq!(
            CALLS.load(Ordering::Relaxed),
            calls_after_first,
            "second pass must be served from the cache"
        );
        // Downstream transformations read the cache too.
        assert_eq!(cached.filter(|x| *x >= 100).count(&c), 50);
        assert_eq!(CALLS.load(Ordering::Relaxed), calls_after_first);
    }

    #[test]
    fn cache_preserves_partitioning_and_content() {
        let d = Dataset::from_vec((0..37).collect::<Vec<i64>>(), 5).unwrap();
        let cached = d.map(|x| x + 1).cache();
        assert_eq!(cached.num_partitions(), 5);
        assert_eq!(cached.collect(&ctx()), (1..=37).collect::<Vec<_>>());
    }

    #[test]
    fn zero_partition_wide_ops_rejected() {
        let d = Dataset::from_vec(vec![(1u32, 1u32)], 1).unwrap();
        assert!(d.group_by_key(0).is_err());
        assert!(d.reduce_by_key(0, |a, _| a).is_err());
        assert!(d.join(&d, 0).is_err());
        let e = Dataset::from_vec(vec![1, 1, 2], 1).unwrap();
        assert!(e.distinct(0).is_err());
    }

    #[test]
    fn poisoned_map_closure_fails_stage_without_killing_process() {
        std::panic::set_hook(Box::new(|_| {}));
        let ctx = ExecContext::with_threads(4)
            .with_retry(crate::exec::RetryPolicy::new(3));
        let d = Dataset::from_vec((0..40).collect::<Vec<i64>>(), 8).unwrap();
        let poisoned = d.map(|x| {
            if x == 17 {
                panic!("malformed record {x}");
            }
            x * 2
        });
        let err = poisoned.try_collect(&ctx).unwrap_err();
        match err {
            SparkError::Task(t) => {
                assert_eq!(t.attempts, 3, "retried to the policy's budget");
                assert!(t.payload.contains("malformed record 17"), "{}", t.payload);
            }
            other => panic!("expected Task error, got {other:?}"),
        }
        let m = ctx.metrics.snapshot();
        assert_eq!(m.failed_tasks, 1);
        assert_eq!(m.retried_tasks, 2);
        // Other partitions — and the whole context — survive: a clean
        // dataset still computes on the same context.
        assert_eq!(d.map(|x| x + 1).try_count(&ctx).unwrap(), 40);
    }

    #[test]
    fn try_actions_succeed_on_clean_data() {
        let c = ctx();
        let d = Dataset::from_vec((1..=10).collect::<Vec<i64>>(), 3).unwrap();
        assert_eq!(d.try_collect(&c).unwrap(), (1..=10).collect::<Vec<_>>());
        assert_eq!(d.try_count(&c).unwrap(), 10);
        assert_eq!(d.try_fold(&c, 0i64, |a, x| a + x, |a, b| a + b).unwrap(), 55);
        let pairs = d.map(|x| (x % 2, x));
        let m = pairs.reduce_by_key(2, |a, b| a + b).unwrap().try_collect_map(&c).unwrap();
        assert_eq!(m[&0], 2 + 4 + 6 + 8 + 10);
        assert_eq!(m[&1], 1 + 3 + 5 + 7 + 9);
    }

    #[test]
    fn poisoned_shuffle_surfaces_as_stage_error() {
        std::panic::set_hook(Box::new(|_| {}));
        let ctx = ExecContext::with_threads(2);
        let pairs: Vec<(u32, u32)> = (0..50).map(|i| (i % 5, i)).collect();
        let d = Dataset::from_vec(pairs, 4).unwrap();
        let poisoned = d.map(|(k, v)| {
            if v == 33 {
                panic!("poison pill in shuffle input");
            }
            (k, v)
        });
        let err = poisoned.group_by_key(3).unwrap().try_collect(&ctx).unwrap_err();
        assert!(matches!(err, SparkError::Task(_)), "{err:?}");
        // The context keeps serving fresh jobs after the failed shuffle.
        assert_eq!(d.try_count(&ctx).unwrap(), 50);
    }
}
