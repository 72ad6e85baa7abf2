/**
 * @file
 * Sampled misprediction event tracing.
 *
 * The aggregate tables say *how many* mispredictions a configuration
 * takes; classifying which branches mispredict and why needs the events
 * themselves. The sink emits one JSONL record per sampled misprediction:
 * pc, fetch-block address, history snapshots, EV8 bank number, the
 * 2Bc-gskew per-table votes when the scheme exposes them, and the
 * behaviour class of the synthetic static branch when a classifier map
 * is attached.
 *
 * Sampling is a deterministic 1-in-N counter (every Nth misprediction,
 * starting with the first): no RNG is consumed, so the same simulation
 * produces byte-identical JSONL -- which is what makes event traces
 * diffable across commits and usable in regression tooling.
 *
 * Two sink flavours share the MispredictSink interface:
 *
 *  - EventTraceSink writes JSONL directly; it owns the sampling counter
 *    and the bench/classifier labels, so it must only be fed from one
 *    thread at a time.
 *  - BufferedEventSink records the raw event structs. The experiment
 *    engine gives every parallel (benchmark, config) job its own buffer
 *    and replays the buffers into the shared EventTraceSink in
 *    submission order, which keeps the emitted stream byte-identical to
 *    a serial run no matter how many worker threads executed the jobs.
 */

#ifndef EV8_OBS_EVENT_TRACE_HH
#define EV8_OBS_EVENT_TRACE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace ev8
{

/** pc-of-branch -> behaviour-class-name ("loop", "gcorr", ...). */
using BranchClassMap = std::unordered_map<uint64_t, std::string>;

/**
 * One misprediction, as the simulator observed it. The flags are one
 * bit each: the engine buffers every misprediction of a cell until the
 * merge, so the record is kept at 48 bytes.
 */
struct MispredictEvent
{
    uint64_t branchSeq = 0;  //!< dynamic conditional-branch index
    uint64_t pc = 0;
    uint64_t blockAddr = 0;
    uint64_t ghist = 0;      //!< conventional global history at lookup
    uint64_t indexHist = 0;  //!< history the index functions consumed
    unsigned bank = 0;       //!< EV8 bank number (0 when unassigned)
    bool taken : 1 = false;
    bool predicted : 1 = false;

    // Per-table votes of the 2Bc-gskew family; valid only when the
    // predictor exposes vote structure (votesValid).
    bool votesValid : 1 = false;
    bool voteBim : 1 = false;
    bool voteG0 : 1 = false;
    bool voteG1 : 1 = false;
    bool voteMeta : 1 = false;   //!< true: chooser selected the e-gskew side
    bool voteMajority : 1 = false;
};

/**
 * Destination for misprediction events. The simulator only calls
 * onMispredict(); harness code labels the stream via setBench() and
 * setClassifier(), which sinks without label state ignore.
 */
class MispredictSink
{
  public:
    virtual ~MispredictSink() = default;

    /**
     * Offers one misprediction to the sink. Returns true when the event
     * was recorded (sampling sinks drop the rest).
     */
    virtual bool onMispredict(const MispredictEvent &event) = 0;

    /** Names the benchmark subsequent events belong to. */
    virtual void setBench(std::string) {}

    /** Attaches a pc -> behaviour-class map (nullptr detaches). */
    virtual void setClassifier(const BranchClassMap *) {}
};

/**
 * JSONL misprediction sink with deterministic 1-in-N sampling. Attach
 * one to SimConfig::events; the experiment engine labels each benchmark
 * via setBench()/setClassifier() while merging per-job buffers.
 */
class EventTraceSink : public MispredictSink
{
  public:
    /**
     * @param out destination stream (one JSON object per line)
     * @param sample_every emit every Nth misprediction (>= 1)
     */
    explicit EventTraceSink(std::ostream &out, uint64_t sample_every = 64);

    void setBench(std::string name) override { bench = std::move(name); }
    void setClassifier(const BranchClassMap *map) override
    {
        classes = map;
    }

    /**
     * Offers one misprediction to the sampler; emits it if selected.
     * Returns true when the event was written.
     */
    bool onMispredict(const MispredictEvent &event) override;

    uint64_t seen() const { return seen_; }
    uint64_t emitted() const { return emitted_; }
    uint64_t sampleEvery() const { return every; }

  private:
    std::ostream &out_;
    uint64_t every;
    uint64_t seen_ = 0;
    uint64_t untilNext_ = 0; //!< offers to skip before the next sample
    uint64_t emitted_ = 0;
    std::string bench;
    const BranchClassMap *classes = nullptr;
};

/**
 * Records every offered event verbatim. One per parallel job: the
 * engine replays buffers into the real (sampling) sink in submission
 * order, so the sampling counter observes the exact misprediction
 * stream a serial run would have produced.
 */
class BufferedEventSink : public MispredictSink
{
  public:
    bool
    onMispredict(const MispredictEvent &event) override
    {
        // Grows 4x at a time: a cell's buffer reaches megabytes, and a
        // doubling vector copies the whole of it once more on the way.
        if (events_.size() == events_.capacity())
            events_.reserve(std::max<size_t>(256, 4 * events_.capacity()));
        events_.push_back(event);
        return true;
    }

    const std::vector<MispredictEvent> &events() const { return events_; }

    /** Moves the buffer out (leaves this sink empty). */
    std::vector<MispredictEvent>
    take()
    {
        return std::move(events_);
    }

    /** Replays every buffered event into @p sink, in recorded order. */
    void
    replayInto(MispredictSink &sink) const
    {
        for (const MispredictEvent &event : events_)
            sink.onMispredict(event);
    }

  private:
    std::vector<MispredictEvent> events_;
};

} // namespace ev8

#endif // EV8_OBS_EVENT_TRACE_HH
