/**
 * @file
 * Minimal machine-readable bench output: one JSON array of flat row
 * objects per binary, written to the path given with --json. No
 * dependencies; the format is deliberately tiny so scripts/bench.sh can
 * accumulate BENCH_*.json artifacts per PR (the perf trajectory).
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace incll::bench {

class JsonReport
{
  public:
    /** A row under construction. Finish all field()s before the next
     *  row() call on the parent report. */
    class Row
    {
      public:
        Row(JsonReport *report, std::size_t index)
            : report_(report), index_(index)
        {
        }

        Row &
        field(std::string_view name, std::string_view v)
        {
            std::string &out = report_->rows_[index_];
            appendKey(out, name);
            out += '"';
            appendEscaped(out, v);
            out += '"';
            return *this;
        }

        Row &
        field(std::string_view name, double v)
        {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.6g", v);
            std::string &out = report_->rows_[index_];
            appendKey(out, name);
            out += buf;
            return *this;
        }

        Row &
        field(std::string_view name, std::uint64_t v)
        {
            std::string &out = report_->rows_[index_];
            appendKey(out, name);
            out += std::to_string(v);
            return *this;
        }

        Row &
        field(std::string_view name, unsigned v)
        {
            return field(name, static_cast<std::uint64_t>(v));
        }

      private:
        static void
        appendKey(std::string &out, std::string_view name)
        {
            out += ", \"";
            appendEscaped(out, name);
            out += "\": ";
        }

        static void
        appendEscaped(std::string &out, std::string_view s)
        {
            for (const char c : s) {
                if (c == '"' || c == '\\')
                    out += '\\';
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                    continue;
                }
                out += c;
            }
        }

        JsonReport *report_;
        std::size_t index_;
    };

    /** @p path empty = disabled (rows are collected but never written). */
    JsonReport(std::string path, std::string_view bench)
        : path_(std::move(path)), bench_(bench), thp_(thpMode())
    {
    }

    ~JsonReport() { write(); }

    JsonReport(const JsonReport &) = delete;
    JsonReport &operator=(const JsonReport &) = delete;

    bool enabled() const { return !path_.empty(); }

    /**
     * Start a new row. Every row carries a "bench" field and a "thp"
     * field naming the transparent-huge-page mode the run had, so a
     * comparison never matches rows from two page modes.
     */
    Row
    row()
    {
        rows_.emplace_back("{\"bench\": \"" + bench_ + "\"");
        Row r(this, rows_.size() - 1);
        r.field("thp", thp_);
        return r;
    }

    /** Write the report (idempotent; also run by the destructor). */
    void
    write()
    {
        if (path_.empty() || written_)
            return;
        std::FILE *f = std::fopen(path_.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "json: cannot open %s\n", path_.c_str());
            return;
        }
        std::fputs("[\n", f);
        for (std::size_t i = 0; i < rows_.size(); ++i)
            std::fprintf(f, "  %s}%s\n", rows_[i].c_str(),
                         i + 1 < rows_.size() ? "," : "");
        std::fputs("]\n", f);
        std::fclose(f);
        written_ = true;
    }

  private:
    friend class Row;

    /** The bracketed (active) token of the kernel's THP `enabled`
     *  setting, or "unavailable" without transparent huge pages. */
    static std::string
    thpMode()
    {
        std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
        std::string line;
        std::getline(in, line);
        const auto open = line.find('[');
        const auto close = line.find(']', open);
        if (open == std::string::npos || close == std::string::npos)
            return "unavailable";
        return line.substr(open + 1, close - open - 1);
    }

    std::string path_;
    std::string bench_;
    std::string thp_;
    std::vector<std::string> rows_;
    bool written_ = false;
};

} // namespace incll::bench
