#include "axiomatic/enumerate.hh"

#include <algorithm>

#include "base/logging.hh"
#include "engine/governor.hh"

namespace rex {

CandidateEnumerator::CandidateEnumerator(const LitmusTest &test,
                                         const engine::CancelToken *cancel)
    : _test(test), _domain(test)
{
    computeTraces(cancel);
}

void
CandidateEnumerator::computeTraces(const engine::CancelToken *cancel)
{
    // Grow the read-value domain to fixpoint: every value any store can
    // write (under the current domain) becomes readable, which can enable
    // new store values, and so on. Litmus tests converge in a few rounds.
    //
    // A thread's enumeration depends only on (test, tid, domain), so a
    // thread is only re-run when the domain has grown since its last
    // enumeration; its previous traces stay valid otherwise. The final
    // round re-runs exactly the threads that are stale w.r.t. the final
    // domain, so on exit every _traces[t] reflects the fixpoint domain.
    _traces.resize(_test.threads.size());
    std::uint64_t version = 1;  // bumped on every domain addition
    std::vector<std::uint64_t> ran_at(_test.threads.size(), 0);
    bool changed = true;
    int rounds = 0;
    while (changed) {
        if (++rounds > 16)
            fatal("value-domain fixpoint did not converge: " + _test.name);
        changed = false;
        for (std::size_t t = 0; t < _test.threads.size(); ++t) {
            // Per-thread trace enumeration is the one phase before any
            // candidate exists to admit; poll the budget between
            // threads and surface a trip as an empty (zero-candidate)
            // enumerator — the caller's governor epilogue marks the
            // result partial.
            if (cancel && cancel->cancelled()) {
                for (auto &traces : _traces)
                    traces.clear();
                return;
            }
            if (ran_at[t] == version)
                continue;
            sem::ThreadExecutor executor(
                _test, static_cast<ThreadId>(t), _domain);
            _traces[t] = executor.enumerate();
            ran_at[t] = version;
            for (const sem::ThreadTrace &trace : _traces[t]) {
                for (const Event &e : trace.events) {
                    if (e.isWrite() &&
                            _domain.addLocValue(e.loc, e.value)) {
                        changed = true;
                        ++version;
                    }
                    if (e.kind == EventKind::GenerateInterrupt &&
                            _domain.addIntid(e.intid)) {
                        changed = true;
                        ++version;
                    }
                }
            }
        }
    }
}

namespace {

/** Most writes to one location co can sanely permute: 8! = 40320 orders
 *  per location already multiplies across locations; beyond that the
 *  factorial blowup is a malformed test, not a workload. */
constexpr std::size_t kMaxCoWritesPerLocation = 8;

/** Generate all permutations of indices [0, n). */
std::vector<std::vector<std::size_t>>
allPermutations(std::size_t n)
{
    std::vector<std::size_t> base(n);
    for (std::size_t i = 0; i < n; ++i)
        base[i] = i;
    std::vector<std::vector<std::size_t>> out;
    do {
        out.push_back(base);
    } while (std::next_permutation(base.begin(), base.end()));
    return out;
}

std::uint64_t
factorial(std::size_t n)
{
    std::uint64_t f = 1;
    for (std::size_t i = 2; i <= n; ++i)
        f *= i;
    return f;
}

/** Shards the check plan cuts a @p total-assignment witness space
 *  into. */
std::uint64_t
shardsIn(std::uint64_t total)
{
    return (total + kCheckShardTarget - 1) / kCheckShardTarget;
}

/**
 * One trace combination's witness space: the skeleton candidate plus a
 * flattened mixed-radix odometer over the rf × co × interrupt choices.
 *
 * The odometer mutates the witness relations of the single reusable
 * candidate in place: advancing a coordinate removes the pairs of its
 * old digit and adds the pairs of the new one (mutate-and-undo), so no
 * per-candidate deep copy of the skeleton ever happens. Coordinate
 * order is [interrupt..., co..., rf...], least significant first —
 * exactly the nesting of the historical three-level odometer, so the
 * global candidate order is unchanged.
 */
struct ComboSpace {
    CandidateExecution cand;
    bool valid = false;

    // rf coordinates: per read, the candidate source writes.
    std::vector<EventId> readIds;
    std::vector<std::vector<EventId>> rfChoices;

    // co coordinates: per location, permutations of non-initial writes.
    std::vector<std::vector<EventId>> locWrites;
    std::vector<std::vector<std::vector<std::size_t>>> locPerms;

    // interrupt coordinates: per SGI-delivered take, the generators.
    std::vector<EventId> tiIds;
    std::vector<std::vector<EventId>> tiChoices;

    // Flattened odometer state.
    std::vector<std::size_t> pick;
    std::vector<std::uint64_t> radix;
    std::uint64_t total = 1;
    std::size_t coBase = 0;  //!< first co coordinate
    std::size_t rfBase = 0;  //!< first rf coordinate

    // ---- Coherence pre-filter structures (per location). ----
    struct LocNode {
        EventId event;
        int writeSlot = -1;  //!< index into locWrites[loc], or -1
        int rfIndex = -1;    //!< index into readIds, or -1
    };
    struct LocGraph {
        LocationId loc = 0;
        std::vector<LocNode> nodes;
        int initialNode = -1;
        std::vector<std::pair<int, int>> poEdges;  //!< local indices

        int
        nodeOf(EventId event) const
        {
            for (std::size_t i = 0; i < nodes.size(); ++i) {
                if (nodes[i].event == event)
                    return static_cast<int>(i);
            }
            panic("coherence pre-filter: event not at its location");
        }
    };
    std::vector<LocGraph> locGraphs;

    // Pre-filter scratch, sized once at build and reused per candidate.
    mutable std::vector<int> slotRank;
    mutable std::vector<int> rank;
    mutable std::vector<int> orderedNode;
    mutable std::vector<int> indeg;
    mutable std::vector<int> queue;
    mutable std::vector<std::vector<int>> adj;

    // Scratch for build(), kept across combos for its capacity.
    std::vector<std::vector<EventId>> globalIds;

    void build(const LitmusTest &test,
               const std::vector<const sem::ThreadTrace *> &combo,
               bool materialize);

    void
    applyPair(Relation &rel, EventId from, EventId to, bool add)
    {
        if (add)
            rel.add(from, to);
        else
            rel.remove(from, to);
    }

    /** Add (or remove) the witness pairs of digit @p digit of
     *  coordinate @p c. */
    void
    applyCoord(std::size_t c, std::size_t digit, bool add)
    {
        if (c < coBase) {
            applyPair(cand.interruptWitness, tiChoices[c][digit],
                      tiIds[c], add);
        } else if (c < rfBase) {
            const std::size_t loc = c - coBase;
            const std::vector<std::size_t> &perm = locPerms[loc][digit];
            const std::vector<EventId> &writes = locWrites[loc];
            for (std::size_t i = 0; i < perm.size(); ++i) {
                for (std::size_t j = i + 1; j < perm.size(); ++j) {
                    applyPair(cand.co, writes[perm[i]],
                              writes[perm[j]], add);
                }
            }
        } else {
            const std::size_t r = c - rfBase;
            applyPair(cand.rf, rfChoices[r][digit], readIds[r], add);
        }
    }

    /** Advance to the next witness assignment; false after the last. */
    bool
    step()
    {
        for (std::size_t c = 0; c < pick.size(); ++c) {
            applyCoord(c, pick[c], false);
            if (++pick[c] < radix[c]) {
                applyCoord(c, pick[c], true);
                return true;
            }
            pick[c] = 0;
            applyCoord(c, 0, true);
        }
        return false;
    }

    /** Jump to witness assignment @p index (mixed-radix decode). */
    void
    seek(std::uint64_t index)
    {
        for (std::size_t c = 0; c < pick.size(); ++c) {
            const std::size_t digit =
                static_cast<std::size_t>(index % radix[c]);
            index /= radix[c];
            if (digit != pick[c]) {
                applyCoord(c, pick[c], false);
                pick[c] = digit;
                applyCoord(c, digit, true);
            }
        }
    }

    /**
     * SC-per-location check of the current witness assignment on the
     * reduced per-location graph: the co total order as a rank chain,
     * rf edges, fr edges to the first co-successor of each read's
     * source, and the static po-loc edges. Reachability (hence cycle
     * existence) equals the full po-loc | rf | co | fr union, because
     * every one of those relations is intra-location and the dropped
     * co/fr edges are implied by the retained chains.
     */
    bool
    coherentAt(const LocGraph &g) const
    {
        const std::size_t k = g.nodes.size();
        const std::vector<std::size_t> &perm =
            locPerms[g.loc][pick[coBase + g.loc]];
        const std::size_t m = locWrites[g.loc].size();

        for (std::size_t pos = 0; pos < perm.size(); ++pos)
            slotRank[perm[pos]] = static_cast<int>(pos) + 1;
        orderedNode[0] = g.initialNode;
        for (std::size_t i = 0; i < k; ++i) {
            const LocNode &node = g.nodes[i];
            int r = -1;
            if (static_cast<int>(i) == g.initialNode)
                r = 0;
            else if (node.writeSlot >= 0)
                r = slotRank[node.writeSlot];
            rank[i] = r;
            if (r >= 0)
                orderedNode[r] = static_cast<int>(i);
            adj[i].clear();
            indeg[i] = 0;
        }

        auto addEdge = [&](int a, int b) {
            adj[a].push_back(b);
            ++indeg[b];
        };
        for (std::size_t t = 0; t < m; ++t)
            addEdge(orderedNode[t], orderedNode[t + 1]);
        for (std::size_t i = 0; i < k; ++i) {
            const LocNode &node = g.nodes[i];
            if (node.rfIndex < 0)
                continue;
            const EventId src =
                rfChoices[node.rfIndex][pick[rfBase + node.rfIndex]];
            const int src_node = g.nodeOf(src);
            addEdge(src_node, static_cast<int>(i));
            const int src_rank = rank[src_node];
            if (src_rank < static_cast<int>(m))
                addEdge(static_cast<int>(i), orderedNode[src_rank + 1]);
        }
        for (auto [a, b] : g.poEdges)
            addEdge(a, b);

        // Kahn's algorithm: acyclic iff every node gets removed.
        std::size_t head = 0, tail = 0, removed = 0;
        for (std::size_t i = 0; i < k; ++i) {
            if (indeg[i] == 0)
                queue[tail++] = static_cast<int>(i);
        }
        while (head < tail) {
            const int u = queue[head++];
            ++removed;
            for (int v : adj[u]) {
                if (--indeg[v] == 0)
                    queue[tail++] = v;
            }
        }
        return removed == k;
    }

    bool
    coherent() const
    {
        for (const LocGraph &g : locGraphs) {
            if (g.nodes.size() > 1 && !coherentAt(g))
                return false;
        }
        return true;
    }
};

/**
 * Assemble one combination's skeleton and witness-choice sets,
 * reusing this ComboSpace's storage (call it repeatedly across the
 * combos of one enumeration to amortise the allocations).
 * With @p materialize false, only the choice radices and validity are
 * computed (for shard planning); the candidate's relations, the digit-0
 * witness pairs, and the pre-filter graphs are skipped.
 */
void
ComboSpace::build(const LitmusTest &test,
                  const std::vector<const sem::ThreadTrace *> &combo,
                  bool materialize)
{
    valid = false;
    readIds.clear();
    rfChoices.clear();
    locPerms.clear();
    tiIds.clear();
    tiChoices.clear();
    pick.clear();
    radix.clear();
    locGraphs.clear();

    ComboSpace &space = *this;
    CandidateExecution &base = space.cand;
    base.events.clear();
    base.constrainedUnpredictable = false;
    base.unknownSideEffects = false;
    if (base.locNames != test.locations)
        base.locNames = test.locations;
    base.numThreads = test.threads.size();

    // Initial writes first.
    for (LocationId loc = 0; loc < test.locations.size(); ++loc) {
        Event init;
        init.id = static_cast<EventId>(base.events.size());
        init.tid = kInitialThread;
        init.kind = EventKind::WriteMem;
        init.loc = loc;
        init.value = test.initValues[loc];
        init.initial = true;
        base.events.push_back(init);
    }

    globalIds.resize(combo.size());
    std::vector<std::vector<EventId>> &global_ids = globalIds;
    for (std::size_t t = 0; t < combo.size(); ++t) {
        global_ids[t].clear();
        for (const Event &local : combo[t]->events) {
            Event e = local;
            e.id = static_cast<EventId>(base.events.size());
            global_ids[t].push_back(e.id);
            base.events.push_back(e);
        }
    }

    const std::size_t n = base.events.size();
    if (materialize) {
        base.po.reset(n);
        base.iio.reset(n);
        base.addr.reset(n);
        base.data.reset(n);
        base.ctrl.reset(n);
        base.rmw.reset(n);
        base.rf.reset(n);
        base.co.reset(n);
        base.interruptWitness.reset(n);
    }
    base.finalRegs.resize(combo.size());

    for (std::size_t t = 0; t < combo.size(); ++t) {
        const sem::ThreadTrace &trace = *combo[t];
        const std::vector<EventId> &ids = global_ids[t];
        if (materialize) {
            for (std::size_t i = 0; i < ids.size(); ++i) {
                for (std::size_t j = i + 1; j < ids.size(); ++j)
                    base.po.add(ids[i], ids[j]);
            }
            for (auto [a, b] : trace.addr)
                base.addr.add(ids[a], ids[b]);
            for (auto [a, b] : trace.data)
                base.data.add(ids[a], ids[b]);
            for (auto [a, b] : trace.ctrl)
                base.ctrl.add(ids[a], ids[b]);
            for (auto [a, b] : trace.rmw)
                base.rmw.add(ids[a], ids[b]);
            for (auto [a, b] : trace.iio)
                base.iio.add(ids[a], ids[b]);
        }
        base.finalRegs[t] = trace.finalRegs;
        base.constrainedUnpredictable |= trace.constrainedUnpredictable;
        base.unknownSideEffects |= trace.unknownSideEffects;
    }

    // ---- Enumerate rf: per read, every same-location same-value write.
    for (const Event &e : base.events) {
        if (!e.isRead())
            continue;
        std::vector<EventId> sources;
        for (const Event &w : base.events) {
            if (w.isWrite() && w.loc == e.loc && w.value == e.value)
                sources.push_back(w.id);
        }
        if (sources.empty())
            return;  // read's value written by no one: impossible
        space.readIds.push_back(e.id);
        space.rfChoices.push_back(std::move(sources));
    }

    // ---- Enumerate co: per-location permutations of non-initial writes.
    space.locWrites.resize(test.locations.size());
    for (std::vector<EventId> &writes : space.locWrites)
        writes.clear();
    for (const Event &e : base.events) {
        if (e.isWrite() && !e.initial)
            space.locWrites[e.loc].push_back(e.id);
    }
    std::vector<std::uint64_t> perm_counts(test.locations.size(), 1);
    for (LocationId loc = 0; loc < test.locations.size(); ++loc) {
        const std::size_t writes = space.locWrites[loc].size();
        if (writes > kMaxCoWritesPerLocation) {
            fatal("test '" + test.name + "': location " +
                  test.locations[loc] + " has " + std::to_string(writes) +
                  " writes; refusing the factorial co enumeration (max " +
                  std::to_string(kMaxCoWritesPerLocation) + ")");
        }
        perm_counts[loc] = factorial(writes);
        if (materialize)
            space.locPerms.push_back(allPermutations(writes));
    }

    // ---- Enumerate the interrupt witness: SGI-delivered TakeInterrupts
    // pick a matching GenerateInterrupt.
    for (const Event &e : base.events) {
        if (e.kind != EventKind::TakeInterrupt || !e.sgiDelivered)
            continue;
        std::vector<EventId> gens;
        for (const Event &g : base.events) {
            if (g.kind == EventKind::GenerateInterrupt &&
                    g.intid == e.intid &&
                    ((g.targetMask >> e.tid) & 1)) {
                gens.push_back(g.id);
            }
        }
        if (gens.empty())
            return;  // interrupt taken but never generated
        space.tiIds.push_back(e.id);
        space.tiChoices.push_back(std::move(gens));
    }

    // ---- Flattened odometer: [interrupt..., co..., rf...]. ----
    space.coBase = space.tiIds.size();
    space.rfBase = space.coBase + test.locations.size();
    for (std::size_t i = 0; i < space.tiIds.size(); ++i)
        space.radix.push_back(space.tiChoices[i].size());
    for (LocationId loc = 0; loc < test.locations.size(); ++loc)
        space.radix.push_back(perm_counts[loc]);
    for (std::size_t r = 0; r < space.readIds.size(); ++r)
        space.radix.push_back(space.rfChoices[r].size());
    space.total = 1;
    for (std::uint64_t r : space.radix)
        space.total *= r;
    space.pick.assign(space.radix.size(), 0);
    space.valid = true;
    if (!materialize)
        return;

    // Initial write co-before everything at its location (constant
    // across witness assignments; initial write id == loc).
    for (LocationId loc = 0; loc < test.locations.size(); ++loc) {
        for (EventId w : space.locWrites[loc])
            space.cand.co.add(loc, w);
    }
    // Apply digit 0 of every coordinate.
    for (std::size_t c = 0; c < space.pick.size(); ++c)
        space.applyCoord(c, 0, true);

    // ---- Pre-filter graphs: nodes and po-loc edges per location. ----
    std::size_t max_nodes = 0, max_writes = 0;
    for (LocationId loc = 0; loc < test.locations.size(); ++loc) {
        ComboSpace::LocGraph graph;
        graph.loc = loc;
        graph.initialNode = 0;
        graph.nodes.push_back({loc, -1, -1});
        for (std::size_t slot = 0; slot < space.locWrites[loc].size();
                ++slot) {
            graph.nodes.push_back(
                {space.locWrites[loc][slot], static_cast<int>(slot), -1});
        }
        for (std::size_t r = 0; r < space.readIds.size(); ++r) {
            if (base.events[space.readIds[r]].loc == loc) {
                graph.nodes.push_back(
                    {space.readIds[r], -1, static_cast<int>(r)});
            }
        }
        // po-loc edges: same (real) thread, earlier id first — events
        // of one thread are appended in program order.
        for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
            const Event &a = base.events[graph.nodes[i].event];
            if (a.tid == kInitialThread)
                continue;
            for (std::size_t j = 0; j < graph.nodes.size(); ++j) {
                const Event &b = base.events[graph.nodes[j].event];
                if (b.tid == a.tid && a.id < b.id)
                    graph.poEdges.emplace_back(static_cast<int>(i),
                                               static_cast<int>(j));
            }
        }
        max_nodes = std::max(max_nodes, graph.nodes.size());
        max_writes = std::max(max_writes, space.locWrites[loc].size());
        space.locGraphs.push_back(std::move(graph));
    }
    space.slotRank.assign(max_writes, 0);
    space.rank.assign(max_nodes, -1);
    space.orderedNode.assign(max_writes + 1, -1);
    space.indeg.assign(max_nodes, 0);
    space.queue.assign(max_nodes, 0);
    if (space.adj.size() < max_nodes)
        space.adj.resize(max_nodes);
}

} // namespace

std::size_t
CandidateEnumerator::combinationCount() const
{
    std::size_t n = 1;
    for (const auto &traces : _traces) {
        if (traces.empty())
            return 0;  // a thread has no trace: no candidates
        n *= traces.size();
    }
    return n;
}

std::vector<const sem::ThreadTrace *>
CandidateEnumerator::comboAt(std::size_t index) const
{
    std::vector<const sem::ThreadTrace *> combo(_traces.size());
    for (std::size_t t = 0; t < _traces.size(); ++t) {
        combo[t] = &_traces[t][index % _traces[t].size()];
        index /= _traces[t].size();
    }
    return combo;
}

void
CandidateEnumerator::forEachStaged(const StagedVisitor &visit,
                                   const engine::CancelToken *cancel,
                                   Cursor start) const
{
    const std::size_t combos = combinationCount();
    ComboSpace space;  // reused across combos (storage amortisation)
    std::size_t ci = 0;
    std::uint64_t firstShard = 0;  // plan index of combo ci's shard 0
    std::uint64_t skip = 0;        // assignments to skip in combo ci
    if (start.shard != 0 || start.offset != 0) {
        // Reach the cursor by sizing the combinations before it (the
        // planning build: radices only, no relations).
        for (; ci < combos; ++ci) {
            space.build(_test, comboAt(ci), /*materialize=*/false);
            if (!space.valid)
                continue;
            const std::uint64_t shards = shardsIn(space.total);
            if (start.shard < firstShard + shards)
                break;
            firstShard += shards;
        }
        skip = (start.shard - firstShard) * kCheckShardTarget +
               start.offset;
    }
    for (; ci < combos; ++ci) {
        // Cancellation poll before each (potentially expensive)
        // skeleton build; the per-step poll below keeps the latency
        // bound within a combination.
        if (cancel && cancel->cancelled())
            return;
        space.build(_test, comboAt(ci), /*materialize=*/true);
        if (!space.valid)
            continue;
        rexAssert(skip < space.total, "staged cursor outside the plan");
        space.seek(skip);
        StagedInfo info;
        info.comboIndex = ci;
        info.shard = firstShard + skip / kCheckShardTarget;
        info.offset = skip % kCheckShardTarget;
        skip = 0;
        while (true) {
            info.coherent = space.coherent();
            if (!visit(space.cand, info))
                return;
            if (cancel && cancel->cancelled())
                return;
            if (!space.step())
                break;
            if (++info.offset == kCheckShardTarget) {
                ++info.shard;
                info.offset = 0;
            }
        }
        firstShard += shardsIn(space.total);
    }
}

void
CandidateEnumerator::forEach(
    const std::function<bool(CandidateExecution &)> &visit)
{
    forEachStaged([&](CandidateExecution &cand, const StagedInfo &) {
        return visit(cand);
    });
}

std::vector<CandidateEnumerator::Shard>
CandidateEnumerator::planShards(const engine::CancelToken *cancel) const
{
    std::vector<Shard> shards;
    const std::size_t combos = combinationCount();
    ComboSpace space;
    for (std::size_t ci = 0; ci < combos; ++ci) {
        if (cancel && cancel->cancelled())
            break;  // budget gone mid-plan: partial plan, partial result
        space.build(_test, comboAt(ci), /*materialize=*/false);
        if (!space.valid)
            continue;
        for (std::uint64_t begin = 0; begin < space.total;
                begin += kCheckShardTarget) {
            shards.push_back(
                {shards.size(), ci, begin,
                 std::min(space.total, begin + kCheckShardTarget)});
        }
    }
    return shards;
}

bool
CandidateEnumerator::visitShard(const Shard &shard,
                                const StagedVisitor &visit,
                                const engine::CancelToken *cancel) const
{
    if (cancel && cancel->cancelled())
        return false;  // budget already gone: skip the skeleton build
    ComboSpace space;
    space.build(_test, comboAt(shard.combo), /*materialize=*/true);
    if (!space.valid)
        return true;
    rexAssert(shard.end <= space.total && shard.begin < shard.end,
              "shard outside its combination's witness space");
    space.seek(shard.begin);
    StagedInfo info;
    info.comboIndex = shard.combo;
    info.shard = shard.index;
    for (std::uint64_t i = shard.begin; i < shard.end; ++i) {
        // Plan shards start at multiples of the target, so this is the
        // offset from the plan start even when begin was advanced.
        info.offset = i % kCheckShardTarget;
        info.coherent = space.coherent();
        if (!visit(space.cand, info))
            return false;
        if (i + 1 < shard.end && !space.step())
            panic("witness odometer overran its space");
    }
    return true;
}

void
CandidateEnumerator::visitCombinationNaive(
    const std::vector<const sem::ThreadTrace *> &combo,
    const std::function<bool(CandidateExecution &)> &visit,
    bool &keep_going)
{
    // The pre-staging reference path: assemble the skeleton, then
    // deep-copy it for every witness assignment.
    ComboSpace space;
    space.build(_test, combo, /*materialize=*/true);
    if (!space.valid)
        return;
    while (true) {
        CandidateExecution cand = space.cand;
        keep_going = visit(cand);
        if (!keep_going)
            return;
        if (!space.step())
            return;
    }
}

void
CandidateEnumerator::forEachNaive(
    const std::function<bool(CandidateExecution &)> &visit)
{
    // Odometer over per-thread trace choices.
    std::vector<std::size_t> pick(_traces.size(), 0);
    for (const auto &traces : _traces) {
        if (traces.empty())
            return;  // a thread has no trace: no candidates
    }

    bool keep_going = true;
    while (keep_going) {
        std::vector<const sem::ThreadTrace *> combo;
        combo.reserve(_traces.size());
        for (std::size_t t = 0; t < _traces.size(); ++t)
            combo.push_back(&_traces[t][pick[t]]);
        visitCombinationNaive(combo, visit, keep_going);
        if (!keep_going)
            break;

        bool more = false;
        for (std::size_t t = 0; t < _traces.size(); ++t) {
            if (++pick[t] < _traces[t].size()) {
                more = true;
                break;
            }
            pick[t] = 0;
        }
        if (!more)
            break;
    }
}

std::size_t
CandidateEnumerator::count()
{
    // Counting needs no candidate at all: each valid combination
    // contributes the product of its witness-choice radices (exactly
    // the number of assignments the odometer would step through).
    std::size_t n = 0;
    const std::size_t combos = combinationCount();
    ComboSpace space;
    for (std::size_t ci = 0; ci < combos; ++ci) {
        space.build(_test, comboAt(ci), /*materialize=*/false);
        if (space.valid)
            n += static_cast<std::size_t>(space.total);
    }
    return n;
}

} // namespace rex
