//! A reusable monotone dataflow framework over [`crate::cfg`].
//!
//! Classic Kildall/Kam-Ullman setup: a client implements [`Analysis`] by
//! choosing a direction, a join-semilattice of facts (`bottom` + `join`),
//! and monotone transfer functions for statements and terminators; the
//! [`solve`] driver runs a deterministic worklist to the least fixpoint.
//!
//! Design points:
//!
//! * **Deterministic iteration.** The worklist is a bitset keyed by
//!   reverse-postorder index (postorder for backward problems) that always
//!   pops its lowest member, so the fixpoint — and, more importantly, the
//!   *work schedule* — is identical across runs and platforms. Unreachable
//!   blocks (dead code after `return`/`break`) are appended after the
//!   reachable ones in block-id order, so their statements still receive
//!   facts.
//! * **Guaranteed termination.** The client declares the lattice
//!   [`Analysis::height`] for the function under analysis; the solver
//!   panics (naming the analysis) if any block is re-processed more often
//!   than the height allows, which can only happen when a transfer is
//!   non-monotone or the declared height is wrong. Correct clients never
//!   hit the bound.
//! * **Dense statement index.** [`StmtIndex`] numbers the function's
//!   statements once per solve (position `i` holds the `i`-th smallest
//!   [`StmtId`]). The solver resolves every block's statements to
//!   positions up front, so a worklist visit does no lookups, and passes
//!   the position to [`Analysis::transfer_stmt_at`]: a client that
//!   summarizes each statement once (liveness's gen/kill masks) indexes
//!   its summaries by it instead of re-deriving them on every visit.
//! * **Per-statement replay.** After the block-level fixpoint, facts are
//!   replayed through each block once more to record a fact *before* and
//!   *after* every statement (in program order, regardless of direction),
//!   which is what lint clients consume. [`Solution`] stores them in
//!   vectors indexed by statement position.
//!
//! Facts live on block boundaries: `entry[b]` holds at the block's first
//! statement in program order, `exit[b]` after its terminator. For a
//! backward analysis the flow input of a block is `exit[b]` and the result
//! of its transfers is `entry[b]`.

use std::collections::{BTreeMap, BTreeSet};

use imp::ast::{Block, Function, Stmt, StmtId, StmtKind};

use crate::cfg::{BlockId, Cfg, Terminator};

/// Which way facts flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from Start towards End (e.g. reaching definitions).
    Forward,
    /// Facts flow from End towards Start (e.g. liveness).
    Backward,
}

/// A monotone dataflow problem over a join-semilattice.
///
/// `join` must be commutative, associative, and idempotent with `bottom`
/// as its identity; `transfer_stmt`/`transfer_terminator` must be monotone
/// with respect to the induced partial order. Violations are caught at run
/// time by the height guard in [`solve`].
pub trait Analysis {
    /// Lattice element.
    type Fact: Clone + Eq + std::fmt::Debug;

    /// Short name used in the termination-guard panic message.
    fn name(&self) -> &'static str;

    /// Flow direction.
    fn direction(&self) -> Direction;

    /// The least lattice element (identity of [`Analysis::join`]).
    fn bottom(&self) -> Self::Fact;

    /// The fact holding at the boundary: entry of Start for forward
    /// problems, exit of End for backward ones. Defaults to `bottom`.
    fn boundary(&self, _f: &Function) -> Self::Fact {
        self.bottom()
    }

    /// Least upper bound of two facts.
    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact;

    /// Transfer one statement, receiving the fact flowing *into* it
    /// (program-order before for forward problems, program-order after for
    /// backward ones).
    fn transfer_stmt(&self, stmt: &Stmt, fact: &Self::Fact) -> Self::Fact;

    /// Transfer the statement at position `pos` of the solver's
    /// [`StmtIndex`]. The solver calls this; the default forwards to
    /// [`Analysis::transfer_stmt`]. A client that summarizes every
    /// statement up front overrides it to look the summary up by `pos`.
    fn transfer_stmt_at(&self, _pos: usize, stmt: &Stmt, fact: &Self::Fact) -> Self::Fact {
        self.transfer_stmt(stmt, fact)
    }

    /// Transfer a block terminator; defaults to the identity.
    fn transfer_terminator(&self, _t: &Terminator, fact: &Self::Fact) -> Self::Fact {
        fact.clone()
    }

    /// Transfer the terminator of block `b`. The solver calls this; the
    /// default forwards to [`Analysis::transfer_terminator`].
    fn transfer_terminator_at(&self, _b: BlockId, t: &Terminator, fact: &Self::Fact) -> Self::Fact {
        self.transfer_terminator(t, fact)
    }

    /// An upper bound on the length of strictly-ascending chains the
    /// fixpoint can climb in `f` (e.g. the number of variables for a
    /// powerset-of-variables lattice). Used only for the termination guard.
    fn height(&self, f: &Function) -> usize;
}

/// The least fixpoint of an [`Analysis`] over one function.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// Fact at each block's program-order entry.
    pub entry: Vec<F>,
    /// Fact at each block's program-order exit (after the terminator).
    pub exit: Vec<F>,
    /// The solved function's statement ids, ascending: position `i` of
    /// `before`/`after` belongs to `ids[i]`.
    pub(crate) ids: Vec<StmtId>,
    /// Fact just before each statement, in program order.
    pub(crate) before: Vec<F>,
    /// Fact just after each statement, in program order.
    pub(crate) after: Vec<F>,
}

impl<F> Solution<F> {
    /// Fact holding just before `id` in program order, if `id` is a
    /// statement of the solved function. (An `If` id rides in its
    /// branching block, so it gets the fact at the condition.)
    pub fn before(&self, id: StmtId) -> Option<&F> {
        position_of(&self.ids, id).map(|p| &self.before[p])
    }

    /// Fact holding just after `id` in program order.
    pub fn after(&self, id: StmtId) -> Option<&F> {
        position_of(&self.ids, id).map(|p| &self.after[p])
    }
}

/// Position of `id` in the ascending `ids`. A renumbered function holds a
/// contiguous id range, so the offset from the first id usually hits
/// directly; ids with gaps (after dead-code removal) fall back to binary
/// search.
pub(crate) fn position_of(ids: &[StmtId], id: StmtId) -> Option<usize> {
    let guess = id.0.wrapping_sub(ids.first()?.0) as usize;
    if ids.get(guess) == Some(&id) {
        return Some(guess);
    }
    ids.binary_search(&id).ok()
}

/// A dense numbering of one function's statements, nested ones included:
/// position `i` holds the `i`-th smallest [`StmtId`] and its statement.
///
/// [`imp::ast::Program::renumber`] hands out ids in walk order, so the
/// walk already yields them sorted; only a rewrite that inserted
/// placeholder ids pays for a sort.
#[derive(Debug)]
pub struct StmtIndex<'f> {
    ids: Vec<StmtId>,
    stmts: Vec<&'f Stmt>,
}

impl<'f> StmtIndex<'f> {
    /// Index every statement of `f`'s body.
    ///
    /// Panics when two statements share an id: per-statement facts are
    /// keyed by `StmtId`, so duplicates would silently alias statements and
    /// corrupt every client (the usual culprit is a rewrite that forgot to
    /// renumber).
    pub fn build(f: &'f Function) -> StmtIndex<'f> {
        fn count(b: &Block) -> usize {
            b.stmts
                .iter()
                .map(|s| 1 + children(s).map(count).sum::<usize>())
                .sum()
        }
        fn walk<'a>(b: &'a Block, index: &mut StmtIndex<'a>) {
            for s in &b.stmts {
                index.ids.push(s.id);
                index.stmts.push(s);
                children(s).for_each(|c| walk(c, index));
            }
        }
        let n = count(&f.body);
        let mut index = StmtIndex {
            ids: Vec::with_capacity(n),
            stmts: Vec::with_capacity(n),
        };
        walk(&f.body, &mut index);
        if !index.ids.is_sorted() {
            let mut pairs: Vec<(StmtId, &Stmt)> = index
                .ids
                .iter()
                .copied()
                .zip(index.stmts.iter().copied())
                .collect();
            pairs.sort_unstable_by_key(|p| p.0);
            (index.ids, index.stmts) = pairs.into_iter().unzip();
        }
        if let Some(w) = index.ids.windows(2).find(|w| w[0] == w[1]) {
            panic!(
                "dataflow: duplicate StmtId {:?} in function body; \
                 statements must be renumbered before analysis",
                w[0]
            );
        }
        index
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True for an empty function body.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Position of statement `id`, if it belongs to the function.
    pub fn position(&self, id: StmtId) -> Option<usize> {
        position_of(&self.ids, id)
    }

    /// Position of a statement the CFG names; panics when the CFG was
    /// built from a different function.
    fn expect_position(&self, id: StmtId) -> usize {
        self.position(id)
            .unwrap_or_else(|| panic!("dataflow: CFG statement {id} is not in the function"))
    }

    /// The statement at position `pos`.
    pub fn stmt(&self, pos: usize) -> &'f Stmt {
        self.stmts[pos]
    }

    /// `(id, statement)` pairs in position order.
    pub fn iter(&self) -> impl Iterator<Item = (StmtId, &'f Stmt)> + '_ {
        self.ids.iter().copied().zip(self.stmts.iter().copied())
    }
}

/// The blocks nested directly inside a compound statement.
fn children(s: &Stmt) -> impl Iterator<Item = &Block> {
    let (a, b) = match &s.kind {
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => (Some(then_branch), Some(else_branch)),
        StmtKind::ForEach { body, .. } | StmtKind::While { body, .. } => (Some(body), None),
        _ => (None, None),
    };
    a.into_iter().chain(b)
}

/// Index every statement of a function body by id (see [`StmtIndex`],
/// whose duplicate-id panic this shares).
pub fn stmt_index(f: &Function) -> BTreeMap<StmtId, &Stmt> {
    StmtIndex::build(f).iter().collect()
}

/// A set of small dense integers — variable or block numbers — for
/// bit-vector problems. The first 128 members live inline, so sets over
/// typical functions never allocate; larger numbers spill into heap words.
///
/// Sets that are compared or combined must be made with the same
/// [`BitSet::with_capacity`], so their word vectors line up.
#[derive(Clone, PartialEq, Eq)]
pub struct BitSet {
    inline: [u64; 2],
    spill: Option<Box<[u64]>>,
}

impl BitSet {
    const INLINE: usize = 128;

    /// The empty set over members `0..bits`.
    pub fn with_capacity(bits: usize) -> BitSet {
        BitSet {
            inline: [0; 2],
            spill: match bits.saturating_sub(Self::INLINE).div_ceil(64) {
                0 => None,
                words => Some(vec![0; words].into_boxed_slice()),
            },
        }
    }

    /// The set `{0, 1, …, bits - 1}`.
    pub fn full(bits: usize) -> BitSet {
        let mut s = BitSet::with_capacity(bits);
        for i in 0..bits {
            s.insert(i);
        }
        s
    }

    fn word(&self, w: usize) -> u64 {
        if w < 2 {
            self.inline[w]
        } else {
            self.spill()[w - 2]
        }
    }

    fn word_mut(&mut self, w: usize) -> &mut u64 {
        if w < 2 {
            &mut self.inline[w]
        } else {
            &mut self.spill.as_deref_mut().expect("bit within capacity")[w - 2]
        }
    }

    fn spill(&self) -> &[u64] {
        self.spill.as_deref().unwrap_or_default()
    }

    fn words(&self) -> usize {
        2 + self.spill().len()
    }

    /// Add `i`; panics when `i` is beyond the set's capacity.
    pub fn insert(&mut self, i: usize) {
        *self.word_mut(i / 64) |= 1 << (i % 64);
    }

    /// Remove `i`.
    pub fn remove(&mut self, i: usize) {
        *self.word_mut(i / 64) &= !(1 << (i % 64));
    }

    /// Membership; false beyond the capacity.
    pub fn contains(&self, i: usize) -> bool {
        i / 64 < self.words() && self.word(i / 64) & (1 << (i % 64)) != 0
    }

    /// `self ∪= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.words(), other.words());
        self.inline[0] |= other.inline[0];
        self.inline[1] |= other.inline[1];
        for (a, b) in self
            .spill
            .iter_mut()
            .flat_map(|s| s.iter_mut())
            .zip(other.spill())
        {
            *a |= b;
        }
    }

    /// `self −= other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.words(), other.words());
        self.inline[0] &= !other.inline[0];
        self.inline[1] &= !other.inline[1];
        for (a, b) in self
            .spill
            .iter_mut()
            .flat_map(|s| s.iter_mut())
            .zip(other.spill())
        {
            *a &= !b;
        }
    }

    /// The smallest member.
    pub fn first(&self) -> Option<usize> {
        (0..self.words())
            .find(|&w| self.word(w) != 0)
            .map(|w| w * 64 + self.word(w).trailing_zeros() as usize)
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.words()).flat_map(move |w| {
            let mut bits = self.word(w);
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let i = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + i
                })
            })
        })
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Solve `a` over `f`, building the CFG internally.
pub fn solve<A: Analysis>(a: &A, f: &Function) -> Solution<A::Fact> {
    let cfg = Cfg::build(f);
    solve_cfg(a, f, &cfg)
}

/// Solve `a` over a pre-built CFG of `f`.
pub fn solve_cfg<A: Analysis>(a: &A, f: &Function, cfg: &Cfg) -> Solution<A::Fact> {
    solve_indexed(a, f, cfg, StmtIndex::build(f))
}

/// Solve `a` over a pre-built CFG and statement index of `f` — for
/// clients that built the index themselves to precompute per-statement
/// summaries for [`Analysis::transfer_stmt_at`].
pub fn solve_indexed<A: Analysis>(
    a: &A,
    f: &Function,
    cfg: &Cfg,
    index: StmtIndex<'_>,
) -> Solution<A::Fact> {
    let forward = a.direction() == Direction::Forward;
    let g = Graph::new(cfg, forward);
    let n = cfg.blocks.len();

    let mut entry: Vec<A::Fact> = vec![a.bottom(); n];
    let mut exit: Vec<A::Fact> = vec![a.bottom(); n];
    if forward {
        entry[cfg.start.0] = a.boundary(f);
    } else {
        exit[cfg.end.0] = a.boundary(f);
    }

    let height = a.height(f);
    // Each re-processing of a block is caused by a strict lattice climb of
    // its flow input, so `height + 2` visits (initial + climbs + slack)
    // suffice for any monotone client.
    let budget = height + 2;
    let mut visits = vec![0usize; n];

    let mut worklist = BitSet::full(n);
    while let Some(p) = worklist.first() {
        worklist.remove(p);
        let b = g.by_priority[p];
        visits[b] += 1;
        assert!(
            visits[b] <= budget,
            "dataflow: `{}` exceeded the declared lattice height ({height}) at block {b}; \
             a transfer function is non-monotone or the height bound is wrong",
            a.name(),
        );
        // Flow input → transfers → flow output, joined into every
        // downstream block's input: successors' entries for forward
        // problems, predecessors' exits for backward ones. (End has no
        // successors, so for a backward problem its `exit` keeps the
        // boundary fact.)
        let (input, output) = if forward {
            (&mut entry, &mut exit)
        } else {
            (&mut exit, &mut entry)
        };
        let out = transfer_block(a, cfg, &index, b, input[b].clone(), forward);
        if out == output[b] {
            continue;
        }
        for &d in g.downstream(b) {
            let joined = a.join(&input[d], &out);
            if joined != input[d] {
                input[d] = joined;
                worklist.insert(g.priority[d]);
            }
        }
        output[b] = out;
    }

    // Replay each block once to record per-statement facts.
    let mut before = vec![a.bottom(); index.len()];
    let mut after = vec![a.bottom(); index.len()];
    for (i, block) in cfg.blocks.iter().enumerate() {
        if forward {
            let mut fact = entry[i].clone();
            for id in &block.stmts {
                let pos = index.expect_position(*id);
                before[pos] = fact.clone();
                fact = a.transfer_stmt_at(pos, index.stmt(pos), &fact);
                after[pos] = fact.clone();
            }
        } else {
            let mut fact = exit[i].clone();
            if let Some(t) = &block.terminator {
                fact = a.transfer_terminator_at(BlockId(i), t, &fact);
            }
            for id in block.stmts.iter().rev() {
                let pos = index.expect_position(*id);
                after[pos] = fact.clone();
                fact = a.transfer_stmt_at(pos, index.stmt(pos), &fact);
                before[pos] = fact.clone();
            }
        }
    }

    Solution {
        entry,
        exit,
        ids: index.ids,
        before,
        after,
    }
}

/// The CFG's edges flattened for the solver: the downstream blocks a
/// changed fact flows into, and the worklist priority order.
struct Graph {
    /// Block `b`'s downstream blocks are `down[down_start[b]..down_start[b + 1]]`.
    down_start: Vec<usize>,
    down: Vec<usize>,
    /// Worklist priority of each block, and its inverse.
    priority: Vec<usize>,
    by_priority: Vec<usize>,
}

impl Graph {
    fn new(cfg: &Cfg, forward: bool) -> Graph {
        let n = cfg.blocks.len();
        // Successor lists in `Cfg::successors` order, which would allocate
        // a vector per call.
        let mut succ_start = Vec::with_capacity(n + 1);
        let mut succ = Vec::with_capacity(2 * n);
        succ_start.push(0);
        for block in &cfg.blocks {
            match &block.terminator {
                Some(Terminator::Goto(t)) => succ.push(t.0),
                Some(Terminator::Branch {
                    then_to, else_to, ..
                }) => succ.extend([then_to.0, else_to.0]),
                Some(Terminator::ForDispatch { body, exit, .. }) => succ.extend([body.0, exit.0]),
                Some(Terminator::Return(_)) => succ.push(cfg.end.0),
                Some(Terminator::End) | None => {}
            }
            succ_start.push(succ.len());
        }

        // Deterministic priority: reverse-postorder position for forward
        // problems, postorder position for backward ones; unreachable
        // blocks follow in block-id order. The DFS visits successors in
        // order, like `Cfg::reverse_postorder`.
        let unseen = usize::MAX;
        let mut priority = vec![unseen; n];
        let mut by_priority = Vec::with_capacity(n);
        let mut stack = Vec::with_capacity(n);
        stack.push((cfg.start.0, succ_start[cfg.start.0]));
        priority[cfg.start.0] = 0;
        while let Some((b, next)) = stack.last_mut() {
            if *next < succ_start[*b + 1] {
                let s = succ[*next];
                *next += 1;
                if priority[s] == unseen {
                    priority[s] = 0;
                    stack.push((s, succ_start[s]));
                }
            } else {
                by_priority.push(*b);
                stack.pop();
            }
        }
        if forward {
            by_priority.reverse();
        }
        by_priority.extend((0..n).filter(|&b| priority[b] == unseen));
        for (p, &b) in by_priority.iter().enumerate() {
            priority[b] = p;
        }

        if forward {
            return Graph {
                down_start: succ_start,
                down: succ,
                priority,
                by_priority,
            };
        }
        // Predecessor lists: count into `start[s + 1]`, prefix-sum, fill
        // each list from its start (which advances `start[s]` to the list's
        // end), then shift the starts back. Lists come out in ascending
        // block order.
        let mut start = vec![0; n + 1];
        for &s in &succ {
            start[s + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut pred = vec![0; succ.len()];
        for b in 0..n {
            for &s in &succ[succ_start[b]..succ_start[b + 1]] {
                pred[start[s]] = b;
                start[s] += 1;
            }
        }
        start.copy_within(0..n, 1);
        start[0] = 0;
        Graph {
            down_start: start,
            down: pred,
            priority,
            by_priority,
        }
    }

    fn downstream(&self, b: usize) -> &[usize] {
        &self.down[self.down_start[b]..self.down_start[b + 1]]
    }
}

fn transfer_block<A: Analysis>(
    a: &A,
    cfg: &Cfg,
    index: &StmtIndex<'_>,
    b: usize,
    input: A::Fact,
    forward: bool,
) -> A::Fact {
    let block = &cfg.blocks[b];
    let mut fact = input;
    let stmt = |fact: &A::Fact, id: &StmtId| {
        let pos = index.expect_position(*id);
        a.transfer_stmt_at(pos, index.stmt(pos), fact)
    };
    if forward {
        for id in &block.stmts {
            fact = stmt(&fact, id);
        }
        if let Some(t) = &block.terminator {
            fact = a.transfer_terminator_at(BlockId(b), t, &fact);
        }
    } else {
        if let Some(t) = &block.terminator {
            fact = a.transfer_terminator_at(BlockId(b), t, &fact);
        }
        for id in block.stmts.iter().rev() {
            fact = stmt(&fact, id);
        }
    }
    fact
}

/// Every variable a function mentions (parameters, assignment targets,
/// loop variables, and reads) — the universe for powerset-of-variables
/// lattices, and hence their chain height.
pub fn variable_universe(f: &Function) -> BTreeSet<intern::Symbol> {
    let mut vars: BTreeSet<intern::Symbol> = f.params.iter().copied().collect();
    for (_, s) in StmtIndex::build(f).iter() {
        match &s.kind {
            StmtKind::Assign { target, value } => {
                vars.insert(*target);
                vars.extend(value.vars());
            }
            StmtKind::Expr(e) | StmtKind::Return(Some(e)) => {
                vars.extend(e.vars());
            }
            StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => {
                vars.extend(cond.vars());
            }
            StmtKind::ForEach { var, iterable, .. } => {
                vars.insert(*var);
                vars.extend(iterable.vars());
            }
            StmtKind::Print(es) => {
                for e in es {
                    vars.extend(e.vars());
                }
            }
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
        }
    }
    vars
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp::ast::StmtKind;
    use imp::parser::parse_program;

    /// A toy forward analysis: the set of variables assigned a constant
    /// literal somewhere on every… no — *some* path so far (may analysis).
    struct ConstAssigned;

    impl Analysis for ConstAssigned {
        type Fact = BTreeSet<intern::Symbol>;
        fn name(&self) -> &'static str {
            "const-assigned"
        }
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn bottom(&self) -> Self::Fact {
            BTreeSet::new()
        }
        fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
            a.union(b).copied().collect()
        }
        fn transfer_stmt(&self, stmt: &Stmt, fact: &Self::Fact) -> Self::Fact {
            let mut out = fact.clone();
            if let StmtKind::Assign { target, value } = &stmt.kind {
                if matches!(value, imp::ast::Expr::Lit(_)) {
                    out.insert(*target);
                } else {
                    out.remove(target);
                }
            }
            out
        }
        fn height(&self, f: &Function) -> usize {
            variable_universe(f).len() + 1
        }
    }

    #[test]
    fn forward_fixpoint_reaches_loop_exit() {
        let p =
            parse_program("fn f() { a = 1; for (t in q) { b = 2; c = t.x; } return a; }").unwrap();
        let f = &p.functions[0];
        let sol = solve(&ConstAssigned, f);
        let cfg = Cfg::build(f);
        let at_end: Vec<String> = sol.entry[cfg.end.0].iter().map(|s| s.to_string()).collect();
        assert!(at_end.contains(&"a".to_string()), "{at_end:?}");
        assert!(at_end.contains(&"b".to_string()), "loop body reaches end");
        assert!(!at_end.contains(&"c".to_string()), "c is not constant");
    }

    #[test]
    fn per_stmt_replay_is_program_ordered() {
        let p = parse_program("fn f() { a = 1; b = a; }").unwrap();
        let f = &p.functions[0];
        let sol = solve(&ConstAssigned, f);
        let id_a = f.body.stmts[0].id;
        let id_b = f.body.stmts[1].id;
        assert!(sol.before(id_a).unwrap().is_empty());
        assert_eq!(sol.after(id_a).unwrap().len(), 1);
        assert_eq!(sol.before(id_b).unwrap().len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-monotone")]
    fn height_guard_catches_oscillation() {
        /// Deliberately broken: a counter "lattice" with no finite height —
        /// the loop back-edge climbs forever, so only the guard stops it.
        struct Broken;
        impl Analysis for Broken {
            type Fact = u64;
            fn name(&self) -> &'static str {
                "broken"
            }
            fn direction(&self) -> Direction {
                Direction::Forward
            }
            fn bottom(&self) -> Self::Fact {
                0
            }
            fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
                *a.max(b)
            }
            fn transfer_stmt(&self, _stmt: &Stmt, fact: &Self::Fact) -> Self::Fact {
                fact + 1
            }
            fn height(&self, _f: &Function) -> usize {
                4
            }
        }
        let p = parse_program("fn f() { for (t in q) { a = t.x; } return a; }").unwrap();
        solve(&Broken, &p.functions[0]);
    }
}
