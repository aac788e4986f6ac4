#include "core/approximator.hh"

#include <cmath>

#include "core/context_hash.hh"
#include "util/logging.hh"

namespace lva {

const char *
estimatorName(Estimator e)
{
    switch (e) {
      case Estimator::Average:
        return "AVERAGE";
      case Estimator::Last:
        return "LAST";
      case Estimator::Stride:
        return "STRIDE";
    }
    return "?";
}

u64
ApproximatorConfig::storageBytes(u32 value_bytes) const
{
    // Per entry: tag + confidence + degree counter + LHB values.
    const u64 tag_bits = tagBits;
    const u64 conf_bits = confidenceBits;
    const u64 degree_bits = 8;
    const u64 lhb_bits = u64(lhbEntries) * value_bytes * 8;
    const u64 entry_bits = tag_bits + conf_bits + degree_bits + lhb_bits;
    const u64 ghb_bits = u64(ghbEntries) * value_bytes * 8;
    return (u64(tableEntries) * entry_bits + ghb_bits + 7) / 8;
}

ApproximatorStats::ApproximatorStats(StatRegistry &reg,
                                     const std::string &prefix)
    : lookups(reg.counter(
          StatRegistry::joinPath(prefix, "lookups"),
          "misses presented to the approximator")),
      approximations(reg.counter(
          StatRegistry::joinPath(prefix, "approximations"),
          "misses answered with X_approx")),
      fetchesSkipped(reg.counter(
          StatRegistry::joinPath(prefix, "fetchesSkipped"),
          "block fetches cancelled by the degree counter")),
      trainings(reg.counter(
          StatRegistry::joinPath(prefix, "trainings"),
          "X_actual arrivals applied")),
      allocations(reg.counter(
          StatRegistry::joinPath(prefix, "allocations"),
          "table entries (re)allocated")),
      confRejects(reg.counter(
          StatRegistry::joinPath(prefix, "confRejects"),
          "misses rejected by the confidence gate")),
      coldRejects(reg.counter(
          StatRegistry::joinPath(prefix, "coldRejects"),
          "misses with no history yet")),
      staleDrops(reg.counter(
          StatRegistry::joinPath(prefix, "staleDrops"),
          "trainings dropped after re-allocation")),
      error(reg.histogram(
          StatRegistry::joinPath(prefix, "error"), 0.0, 1.0, 20,
          "relative error of validated estimates", "rel_error")),
      occupancy(reg.gauge(
          StatRegistry::joinPath(prefix, "occupancy"),
          "valid table entries at drain", "entries"))
{
}

LoadValueApproximator::LoadValueApproximator(
    const ApproximatorConfig &config)
    : LoadValueApproximator(config, nullptr, "lva")
{
}

LoadValueApproximator::LoadValueApproximator(
    const ApproximatorConfig &config, StatRegistry &reg,
    const std::string &prefix)
    : LoadValueApproximator(config, &reg, prefix)
{
}

LoadValueApproximator::LoadValueApproximator(
    const ApproximatorConfig &config, StatRegistry *reg,
    const std::string &prefix)
    : config_(config), ghb_(config.ghbEntries),
      ownedReg_(reg == nullptr ? std::make_unique<StatRegistry>()
                               : nullptr),
      stats_(reg != nullptr ? *reg : *ownedReg_, prefix)
{
    lva_assert(config.tableEntries > 0, "table must have entries");
    lva_assert(config.lhbEntries > 0, "LHB must have entries");
    lva_assert(config.tableAssoc > 0 &&
               config.tableEntries % config.tableAssoc == 0,
               "associativity %u must divide %u entries",
               config.tableAssoc, config.tableEntries);
    const u32 entries = config.tableEntries;
    valid_.assign(entries, 0);
    tags_.assign(entries, 0);
    lastUse_.assign(entries, 0);
    conf_.assign(entries,
                 SignedSatCounter::fromBits(config.confidenceBits));
    degree_.assign(entries, DegreeCounter(config.approxDegree));
    lhbValues_.assign(u64(entries) * config.lhbEntries, Value{});
    lhbHead_.assign(entries, 0);
    lhbSize_.assign(entries, 0);
    estCache_.assign(entries, Value{});
    estValid_.assign(entries, 0);
    pending_.resize(config.valueDelay + 2);
}

// lva-hot-path: begin (per-miss estimate/train path; see
// docs/performance.md — no allocation, no per-miss copies)

u32
LoadValueApproximator::lookup(u64 hash, bool &tag_match, u64 &tag_out)
{
    const u32 sets = config_.tableEntries / config_.tableAssoc;
    const HashSplit split = splitHash(hash, sets, config_.tagBits);
    tag_out = split.tag;
    const u32 base = split.index * config_.tableAssoc;

    bool have_victim = false;
    u32 victim_slot = base;
    for (u32 w = 0; w < config_.tableAssoc; ++w) {
        const u32 s = base + w;
        if (valid_[s] && tags_[s] == split.tag) {
            lastUse_[s] = ++useClock_;
            tag_match = true;
            return s;
        }
        if (!valid_[s]) {
            if (!have_victim || valid_[victim_slot]) {
                have_victim = true;
                victim_slot = s;
            }
        } else if (!have_victim ||
                   (valid_[victim_slot] &&
                    lastUse_[s] < lastUse_[victim_slot])) {
            have_victim = true;
            victim_slot = s;
        }
    }
    lastUse_[victim_slot] = ++useClock_;
    tag_match = false;
    return victim_slot;
}

Value
LoadValueApproximator::estimate(u32 slot)
{
    if (estValid_[slot])
        return estCache_[slot];
    // In-place ring iteration, oldest-first — the same kernels (and
    // so the same floating-point summation order) as the historical
    // snapshot()+span path, without the per-miss vector.
    const u32 n = lhbSize_[slot];
    const u32 cap = config_.lhbEntries;
    const Value *vals = &lhbValues_[u64(slot) * cap];
    u32 start = lhbHead_[slot] + cap - n;
    if (start >= cap)
        start -= cap;
    const auto at = [vals, cap, start](u32 i) -> const Value & {
        u32 idx = start + i;
        if (idx >= cap)
            idx -= cap;
        return vals[idx];
    };
    Value v;
    switch (config_.estimator) {
      case Estimator::Average:
        v = averageAt(n, at);
        break;
      case Estimator::Last:
        v = lastAt(n, at);
        break;
      case Estimator::Stride:
        v = strideAt(n, at);
        break;
      default:
        lva_panic("bad estimator %d",
                  static_cast<int>(config_.estimator));
    }
    estCache_[slot] = v;
    estValid_[slot] = 1;
    return v;
}

bool
LoadValueApproximator::gateApplies(ValueKind kind) const
{
    if (config_.confidenceDisabled)
        return false;
    if (kind == ValueKind::Int64)
        return config_.confidenceForInts;
    return true;
}

MissResponse
LoadValueApproximator::onMiss(LoadSiteId pc, const Value &precise)
{
    ++loadCount_;
    applyDueTrainings();
    stats_.lookups.inc();

    const u64 hash = contextHash(pc, ghb_, config_.mantissaDropBits);
    bool tag_match = false;
    u64 tag = 0;
    const u32 slot = lookup(hash, tag_match, tag);

    MissResponse resp;

    if (!tag_match) {
        // Context never seen (or aliased away): (re)allocate and train.
        stats_.allocations.inc();
        valid_[slot] = 1;
        tags_[slot] = tag;
        conf_[slot].reset(0);
        degree_[slot].reset();
        lhbClear(slot);
        resp.approximated = false;
        resp.fetch = true;
        enqueueTraining(slot, tag, std::nullopt, precise);
        return resp;
    }

    if (lhbSize_[slot] == 0) {
        // Matching context but no history yet (training in flight).
        stats_.coldRejects.inc();
        resp.approximated = false;
        resp.fetch = true;
        enqueueTraining(slot, tag, std::nullopt, precise);
        return resp;
    }

    const Value xhat = estimate(slot);
    const bool confident =
        !gateApplies(precise.kind()) || conf_[slot].value() >= 0;

    if (!confident) {
        // Fetch as a normal miss; the would-be estimate still trains
        // confidence so the entry can recover.
        stats_.confRejects.inc();
        resp.approximated = false;
        resp.fetch = true;
        enqueueTraining(slot, tag, xhat, precise);
        return resp;
    }

    resp.approximated = true;
    resp.value = xhat;
    stats_.approximations.inc();

    if (degree_[slot].atZero()) {
        // Degree exhausted: fetch the block to train, then rearm.
        resp.fetch = true;
        degree_[slot].reset();
        enqueueTraining(slot, tag, xhat, precise);
    } else {
        // Reuse the approximation; the fetch is cancelled outright.
        degree_[slot].consume();
        resp.fetch = false;
        stats_.fetchesSkipped.inc();
    }
    return resp;
}

void
LoadValueApproximator::onHit(LoadSiteId pc, const Value &precise)
{
    (void)pc;
    ++loadCount_;
    applyDueTrainings();
    // The precise value is available at L1-hit latency: it enters the
    // global history immediately, providing context for later misses.
    ghb_.push(precise);
}

void
LoadValueApproximator::enqueueTraining(u32 index, u64 tag,
                                       const std::optional<Value> &xhat,
                                       const Value &actual)
{
    const u32 cap = static_cast<u32>(pending_.size());
    lva_assert(pendingCount_ < cap,
               "pending ring overflow (%u of %u)", pendingCount_, cap);
    u32 tail = pendingHead_ + pendingCount_;
    if (tail >= cap)
        tail -= cap;
    PendingTrain &train = pending_[tail];
    train.dueAtLoad = loadCount_ + config_.valueDelay;
    train.index = index;
    train.tag = tag;
    train.hasXhat = xhat.has_value();
    train.xhat = xhat.has_value() ? *xhat : Value{};
    train.actual = actual;
    ++pendingCount_;
}

void
LoadValueApproximator::popPendingFront()
{
    if (++pendingHead_ == static_cast<u32>(pending_.size()))
        pendingHead_ = 0;
    --pendingCount_;
}

void
LoadValueApproximator::applyDueTrainings()
{
    while (pendingCount_ > 0 &&
           pending_[pendingHead_].dueAtLoad <= loadCount_) {
        applyTraining(pending_[pendingHead_]);
        popPendingFront();
    }
}

void
LoadValueApproximator::applyTraining(const PendingTrain &train)
{
    stats_.trainings.inc();

    // X_actual always enters the global history on arrival.
    ghb_.push(train.actual);

    const u32 slot = train.index;
    if (!valid_[slot] || tags_[slot] != train.tag) {
        // Entry was re-allocated to another context while the block was
        // in flight; only the GHB benefits from this value.
        stats_.staleDrops.inc();
        return;
    }

    if (train.hasXhat) {
        const double validated_rel = relativeError(
            train.xhat.toReal(), train.actual.toReal());
        stats_.error.sample(
            std::isnan(validated_rel) ? 1.0 : validated_rel);
        // Same condition withinWindow() would evaluate, reusing the
        // relative error already computed for the histogram (the
        // window <= 0 case degenerates to exact equality, as there).
        const double window = config_.confidenceWindow;
        const bool close =
            std::isinf(window)
                ? true
                : (window <= 0.0
                       ? train.xhat.exactlyEquals(train.actual)
                       : validated_rel <= window);
        if (close) {
            conf_[slot].increment();
        } else if (config_.proportionalConfidence &&
                   config_.confidenceWindow > 0.0) {
            // Penalize in proportion to how far outside the window
            // the estimate landed (capped), so wildly wrong contexts
            // shut off faster while borderline ones keep probing.
            const double widths = validated_rel / config_.confidenceWindow;
            i32 penalty = 1;
            if (std::isfinite(widths))
                penalty += static_cast<i32>(std::min(widths, 3.0));
            conf_[slot].decrement(penalty);
        } else {
            conf_[slot].decrement();
        }
    }

    lhbPush(slot, train.actual);
}

// lva-hot-path: end

void
LoadValueApproximator::drainPending()
{
    while (pendingCount_ > 0) {
        applyTraining(pending_[pendingHead_]);
        popPendingFront();
    }
    stats_.occupancy.set(static_cast<double>(validEntries()));
}

u32
LoadValueApproximator::validEntries() const
{
    u32 count = 0;
    for (const u8 v : valid_)
        count += v;
    return count;
}

} // namespace lva
