/**
 * @file
 * Command-line flag reading shared by every flag parser in the repo:
 * incll_server, the figure benches (bench/bench_util.h), bench_loadgen
 * and bench_obs_overhead. All of them refuse bad input the same way,
 * with the usage line on stderr and exit status 2:
 *
 *   - an unknown flag:  `unknown flag X`
 *   - a missing, non-numeric, trailing-junk or out-of-range value, or 0
 *     where 0 means nothing (a thread or shard count):
 *     `bad value for X: V`
 *
 * `--help` prints the usage line to stdout and exits 0, so appending
 * it to an invocation checks every flag before it without running.
 */
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string_view>

namespace incll {

/**
 * Walks argv one flag at a time:
 *
 *   FlagReader f(argc, argv, kUsage);
 *   while (f.next()) {
 *       if (f.is("--threads"))
 *           threads = f.num<unsigned>(1);
 *       else
 *           f.other(); // --help, or refuse the unknown flag
 *   }
 */
class FlagReader
{
  public:
    FlagReader(int argc, char **argv, const char *usage)
        : argc_(argc), argv_(argv), usage_(usage)
    {
    }

    /** Step to the next flag; false once every argument is read. */
    bool
    next()
    {
        if (++i_ >= argc_)
            return false;
        flag_ = argv_[i_];
        return true;
    }

    bool is(std::string_view name) const { return flag_ == name; }

    /** The current flag's value: the argument after it. */
    const char *
    value()
    {
        if (i_ + 1 >= argc_)
            refuseValue("(missing)");
        return argv_[++i_];
    }

    /** The value, which @p parse must accept without throwing. */
    template <typename Parse>
    const char *
    valueOf(Parse &&parse)
    {
        const char *v = value();
        try {
            parse(v);
        } catch (const std::exception &) {
            refuseValue(v);
        }
        return v;
    }

    /** The value as a decimal integer in [@p lo, @p hi]. */
    template <typename T>
    T
    num(T lo = 0, T hi = std::numeric_limits<T>::max())
    {
        const char *v = value();
        // strtoull would skip blanks and wrap a minus sign around.
        if (*v < '0' || *v > '9')
            refuseValue(v);
        char *end = nullptr;
        errno = 0;
        const unsigned long long x = std::strtoull(v, &end, 10);
        if (errno == ERANGE || *end != '\0' || x < lo || x > hi)
            refuseValue(v);
        return static_cast<T>(x);
    }

    /** The value as a finite number in [@p lo, @p hi]. */
    double
    real(double lo, double hi)
    {
        const char *v = value();
        char *end = nullptr;
        errno = 0;
        const double x = std::strtod(v, &end);
        if (end == v || *end != '\0' || errno == ERANGE ||
            !(x >= lo && x <= hi))
            refuseValue(v);
        return x;
    }

    /** The final branch of a parser: --help, or an unknown flag. */
    [[noreturn]] void
    other() const
    {
        if (flag_ == "--help") {
            std::fputs(usage_, stdout);
            std::exit(0);
        }
        std::fprintf(stderr, "unknown flag %.*s\n%s",
                     static_cast<int>(flag_.size()), flag_.data(), usage_);
        std::exit(2);
    }

  private:
    [[noreturn]] void
    refuseValue(const char *v) const
    {
        std::fprintf(stderr, "bad value for %.*s: %s\n%s",
                     static_cast<int>(flag_.size()), flag_.data(), v,
                     usage_);
        std::exit(2);
    }

    int argc_;
    char **argv_;
    const char *usage_;
    int i_ = 0;
    std::string_view flag_;
};

} // namespace incll
