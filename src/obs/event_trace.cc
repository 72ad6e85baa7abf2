#include "obs/event_trace.hh"

#include <algorithm>
#include <charconv>
#include <string_view>

#include "obs/json.hh"

namespace ev8
{

EventTraceSink::EventTraceSink(std::ostream &out, uint64_t sample_every)
    : out_(out), every(std::max<uint64_t>(1, sample_every))
{
}

namespace
{

/** "0x..." spelling of @p v, formatted into @p buf. */
std::string_view
hex(char (&buf)[24], uint64_t v)
{
    buf[0] = '0';
    buf[1] = 'x';
    const auto res = std::to_chars(buf + 2, buf + sizeof(buf), v, 16);
    return {buf, static_cast<size_t>(res.ptr - buf)};
}

} // namespace

bool
EventTraceSink::onMispredict(const MispredictEvent &event)
{
    // Every Nth offer, starting with the first: a countdown instead of
    // a division, since the engine offers every buffered event.
    ++seen_;
    if (untilNext_ != 0) {
        --untilNext_;
        return false;
    }
    untilNext_ = every - 1;
    ++emitted_;

    char buf[24];
    JsonWriter w(out_);
    w.beginObject();
    w.key("seq");
    w.value(emitted_ - 1);
    w.key("branch");
    w.value(event.branchSeq);
    if (!bench.empty()) {
        w.key("bench");
        w.value(bench);
    }
    // 64-bit addresses and history words go out as hex strings: JSON
    // numbers are doubles and cannot hold them losslessly.
    w.key("pc");
    w.value(hex(buf, event.pc));
    w.key("block");
    w.value(hex(buf, event.blockAddr));
    w.key("bank");
    w.value(static_cast<uint64_t>(event.bank));
    w.key("taken");
    w.value(event.taken);
    w.key("pred");
    w.value(event.predicted);
    w.key("ghist");
    w.value(hex(buf, event.ghist));
    w.key("index_hist");
    w.value(hex(buf, event.indexHist));
    if (classes) {
        const auto it = classes->find(event.pc);
        if (it != classes->end()) {
            w.key("class");
            w.value(it->second);
        }
    }
    if (event.votesValid) {
        w.key("votes");
        w.beginObject();
        w.key("bim");
        w.value(event.voteBim);
        w.key("g0");
        w.value(event.voteG0);
        w.key("g1");
        w.value(event.voteG1);
        w.key("meta");
        w.value(event.voteMeta);
        w.key("majority");
        w.value(event.voteMajority);
        w.endObject();
    }
    w.endObject();
    out_ << '\n';
    return true;
}

} // namespace ev8
