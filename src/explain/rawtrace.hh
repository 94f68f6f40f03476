/**
 * @file
 * Binary on-disk trace format (tlrsim --trace-raw, tlrquery input).
 *
 * Layout: a 32-byte versioned header followed by recordCount
 * TraceRecords written verbatim (64 bytes each, host endianness).
 * recordCount and finalTick are back-patched when the run finishes.
 * A run that ends without finish() (a panic) gets them patched when
 * the writer closes, with the tick of the last record written, so
 * the one run most worth replaying can still be read offline.
 *
 *   offset  size  field
 *        0     8  magic "TLRTRACE"
 *        8     4  version (currently 1)
 *       12     4  recordSize (sizeof(TraceRecord) == 64)
 *       16     8  recordCount
 *       24     8  finalTick (tick passed to TraceSink::finish)
 *
 * The writer is a TraceListener, so recording obeys the same
 * zero-overhead-off contract as every other trace consumer; an
 * optional TraceFilter thins the stream before it hits the disk.
 * Records are copied into a block buffer and written one block at a
 * time through an unbuffered stream, so each fwrite result says
 * exactly how many records reached the file.
 * The reader replays records through any TraceListener (explain
 * pipeline, lifecycle tracker) to reproduce online analyses offline.
 */

#ifndef TLR_EXPLAIN_RAWTRACE_HH
#define TLR_EXPLAIN_RAWTRACE_HH

#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "sim/build_info.hh"
#include "trace/filter.hh"
#include "trace/sink.hh"

namespace tlr
{

struct RawTraceHeader
{
    char magic[8] = {'T', 'L', 'R', 'T', 'R', 'A', 'C', 'E'};
    std::uint32_t version = rawTraceFormatVersion;
    std::uint32_t recordSize = sizeof(TraceRecord);
    std::uint64_t recordCount = 0;
    std::uint64_t finalTick = 0;
};

static_assert(sizeof(RawTraceHeader) == 32, "header layout is the ABI");

class RawTraceWriter : public TraceListener
{
  public:
    /** Records buffered between writes: one 64 KiB block. */
    static constexpr size_t blockRecords = 1024;

    RawTraceWriter() = default;
    ~RawTraceWriter() override { close(); }
    RawTraceWriter(const RawTraceWriter &) = delete;
    RawTraceWriter &operator=(const RawTraceWriter &) = delete;

    /** @return empty string on success, else an error description. */
    std::string open(const std::string &path);

    /** Record only events matching @p f (copied; empty = everything). */
    void setFilter(const TraceFilter &f) { filter_ = f; }

    void onRecord(const TraceRecord &r) override;
    /** Writes the buffered records, back-patches the header and
     *  flushes; a failure is kept for error(). The file stays open. */
    void finish(Tick now) override;
    /** Writes any buffered records, back-patches the header if
     *  finish() never ran, and closes the file.
     *  @return error(), now including a failed close: empty when every
     *          record and the header reached the file. */
    std::string close();

    /** The first failed write, seek, flush or close; empty if none.
     *  Records after a failed write are dropped, so the file holds
     *  exactly written() whole records. */
    const std::string &error() const { return error_; }

    /** Records fwrite reported written to the file. */
    std::uint64_t written() const { return header_.recordCount; }

  private:
    void writeBlock();
    void patchHeader();
    void fail(const char *what);

    std::FILE *file_ = nullptr;
    std::string path_;
    RawTraceHeader header_;
    TraceFilter filter_;
    /** Room for blockRecords records once open. */
    std::unique_ptr<unsigned char[]> block_;
    size_t buffered_ = 0;
    Tick lastTick_ = 0; ///< tick of the last record written
    bool finished_ = false;
    std::string error_;
};

class RawTraceReader
{
  public:
    ~RawTraceReader() { close(); }

    /** @return empty string on success, else an error description
     *         (missing file, bad magic, version/record-size skew). */
    std::string open(const std::string &path);
    void close();

    const RawTraceHeader &header() const { return header_; }

    /** Stream every record through @p fn in file order. */
    void forEach(const std::function<void(const TraceRecord &)> &fn);

    /** Feed the whole file to a listener, then its finish() with the
     *  recorded finalTick — the offline mirror of a live run. */
    void
    replay(TraceListener &l)
    {
        forEach([&](const TraceRecord &r) { l.onRecord(r); });
        l.finish(header_.finalTick);
    }

  private:
    std::FILE *file_ = nullptr;
    RawTraceHeader header_;
};

} // namespace tlr

#endif // TLR_EXPLAIN_RAWTRACE_HH
