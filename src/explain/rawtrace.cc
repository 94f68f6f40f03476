#include "explain/rawtrace.hh"

#include <cerrno>
#include <cstring>

#include "sim/logging.hh"

namespace tlr
{

std::string
RawTraceWriter::open(const std::string &path)
{
    close();
    error_.clear();
    path_ = path;
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        return "cannot open '" + path + "' for writing";
    // The block buffer batches writes; stdio buffering on top would
    // let fwrite report records that a later flush fails to write.
    std::setvbuf(file_, nullptr, _IONBF, 0);
    header_ = RawTraceHeader{};
    lastTick_ = 0;
    finished_ = false;
    if (std::fwrite(&header_, sizeof(header_), 1, file_) != 1) {
        fail("write header to");
        std::string err = error_;
        close();
        return err;
    }
    // Left uninitialised: only the buffered prefix is ever written.
    if (!block_)
        block_ = std::make_unique_for_overwrite<unsigned char[]>(
            blockRecords * sizeof(TraceRecord));
    buffered_ = 0;
    return "";
}

void
RawTraceWriter::fail(const char *what)
{
    if (error_.empty())
        error_ = strfmt("cannot %s '%s': %s", what, path_.c_str(),
                        std::strerror(errno));
}

void
RawTraceWriter::writeBlock()
{
    if (buffered_ == 0)
        return;
    const size_t n =
        std::fwrite(block_.get(), sizeof(TraceRecord), buffered_, file_);
    header_.recordCount += n;
    if (n > 0) {
        TraceRecord last;
        std::memcpy(&last, block_.get() + (n - 1) * sizeof(TraceRecord),
                    sizeof(TraceRecord));
        lastTick_ = last.tick;
    }
    if (n != buffered_)
        fail("write to");
    buffered_ = 0;
}

void
RawTraceWriter::onRecord(const TraceRecord &r)
{
    if (!file_ || !error_.empty())
        return;
    if (!filter_.empty() && !filter_.matches(r))
        return;
    std::memcpy(block_.get() + buffered_ * sizeof(TraceRecord), &r,
                sizeof(TraceRecord));
    if (++buffered_ == blockRecords)
        writeBlock();
}

void
RawTraceWriter::finish(Tick now)
{
    if (!file_)
        return;
    if (error_.empty())
        writeBlock();
    header_.finalTick = now;
    finished_ = true;
    patchHeader();
    // Leave the file open so a second finish() (defensive) still has
    // somewhere to patch; close() runs from the destructor.
}

void
RawTraceWriter::patchHeader()
{
    if (std::fseek(file_, 0, SEEK_SET) != 0)
        fail("seek in");
    else if (std::fwrite(&header_, sizeof(header_), 1, file_) != 1)
        fail("write header to");
    if (std::fflush(file_) != 0 || std::fseek(file_, 0, SEEK_END) != 0)
        fail("flush");
}

std::string
RawTraceWriter::close()
{
    if (file_) {
        if (error_.empty())
            writeBlock();
        if (!finished_) {
            // The run stopped before TraceSink::finish (a panic): the
            // last record written is the best final tick there is.
            header_.finalTick = lastTick_;
            patchHeader();
        }
        if (std::fclose(file_) != 0)
            fail("close");
        file_ = nullptr;
    }
    return error_;
}

std::string
RawTraceReader::open(const std::string &path)
{
    close();
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        return "cannot open '" + path + "'";
    if (std::fread(&header_, sizeof(header_), 1, file_) != 1) {
        close();
        return "'" + path + "' is too short for a trace header";
    }
    static const char magic[8] = {'T', 'L', 'R', 'T', 'R', 'A', 'C', 'E'};
    if (std::memcmp(header_.magic, magic, sizeof(magic)) != 0) {
        close();
        return "'" + path + "' is not a TLR raw trace (bad magic)";
    }
    if (header_.version != 1) {
        close();
        return "'" + path + "' has unsupported trace version " +
               std::to_string(header_.version);
    }
    if (header_.recordSize != sizeof(TraceRecord)) {
        close();
        return "'" + path + "' was written with record size " +
               std::to_string(header_.recordSize) + ", expected " +
               std::to_string(sizeof(TraceRecord));
    }
    return "";
}

void
RawTraceReader::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

void
RawTraceReader::forEach(const std::function<void(const TraceRecord &)> &fn)
{
    if (!file_)
        return;
    std::fseek(file_, sizeof(RawTraceHeader), SEEK_SET);
    TraceRecord r;
    std::uint64_t n = 0;
    while (n < header_.recordCount &&
           std::fread(&r, sizeof(r), 1, file_) == 1) {
        fn(r);
        ++n;
    }
}

} // namespace tlr
