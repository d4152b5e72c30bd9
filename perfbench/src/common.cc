#include "common.h"

#include <sched.h>
#include <dirent.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>

#include "common/hash.h"
#include "masstree/key.h"
#include "store/placement.h"
#include "store/value_util.h"

namespace perfbench {

using namespace incll;

Args
parseArgs(int argc, char **argv)
{
    Args a;
    auto number = [](const std::string &flag, const char *s) {
        char *end = nullptr;
        const unsigned long long v = std::strtoull(s, &end, 10);
        if (end == s || *end != '\0')
            throw std::invalid_argument(flag + " wants a whole number");
        return static_cast<std::uint64_t>(v);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument(flag + " wants a value");
        const char *v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = number(flag, v);
        else if (flag == "--seconds")
            a.seconds = static_cast<unsigned>(number(flag, v));
        else if (flag == "--trace")
            a.trace = number(flag, v) != 0;
        else if (flag == "--commit")
            a.commit = v;
        else if (flag == "--out-dir")
            a.outDir = v;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (a.seconds == 0 || a.seconds > 60)
        throw std::invalid_argument("--seconds must be 1..60");
    return a;
}

unsigned
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
    return static_cast<unsigned>(CPU_COUNT(&set));
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string l;
    while (std::getline(in, l)) {
        if (l.rfind("model name", 0) == 0) {
            const auto colon = l.find(':');
            return colon == std::string::npos ? l : l.substr(colon + 2);
        }
    }
    return "unknown";
}

std::uint64_t
keyU64(std::uint64_t rank)
{
    return mix64(rank);
}

Key
keyOf(std::uint64_t rank)
{
    Key k;
    mt::sliceToBytes(keyU64(rank), k.b);
    return k;
}

std::uint64_t
decodeKey(std::string_view key)
{
    return mt::sliceAt(key, 0);
}

store::ShardedStore::Options
storeOptions(const StoreShape &shape)
{
    store::ShardedStore::Options o;
    o.shards = shape.shards;
    o.mode = shape.mode;
    o.seed = shape.poolSeed;
    o.config.recordOpLatency = shape.recordOpLatency;
    if (shape.range && shape.shards > 1) {
        // Boundaries from a sample of the key universe, so every shard
        // owns an equal share of the scrambled keys.
        o.config.placement = store::PlacementKind::kRange;
        const std::uint64_t n = std::min<std::uint64_t>(shape.keys, 4096);
        const std::uint64_t stride = std::max<std::uint64_t>(1, shape.keys / n);
        std::vector<std::string> samples;
        for (std::uint64_t r = 0; r < shape.keys; r += stride)
            samples.push_back(std::string(keyOf(r).view()));
        o.config.rangeBoundaries =
            store::RangePlacement::boundariesFromSamples(std::move(samples),
                                                         shape.shards);
    }
    // Tree nodes and value buffers take ~100 B per key; the rest is
    // allocator slack and the log buffers.
    const std::uint64_t perShard =
        (shape.keys + shape.shards - 1) / shape.shards;
    o.poolBytesPerShard = (std::size_t{32} << 20) +
                          static_cast<std::size_t>(perShard) * 160 +
                          o.config.logBuffers * o.config.logBufferBytes;
    return o;
}

std::unique_ptr<store::ShardedStore>
buildStore(const StoreShape &shape)
{
    auto st = std::make_unique<store::ShardedStore>(storeOptions(shape));
    st->forEachShard([](store::Shard &s) {
        s.pool().latency().wbinvdNs = kWbinvdNs;
        s.pool().latency().sfenceExtraNs = kSfenceExtraNs;
    });
    // Chunks through the batched install path, as the YCSB preload does.
    constexpr std::size_t kChunk = 256;
    std::array<std::uint64_t, kChunk> ranks;
    std::array<Key, kChunk> keys;
    std::array<store::InstallOp, kChunk> ops;
    for (std::uint64_t base = 0; base < shape.keys; base += kChunk) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(kChunk, shape.keys - base));
        for (std::size_t j = 0; j < n; ++j) {
            ranks[j] = base + j;
            keys[j] = keyOf(ranks[j]);
            ops[j] = {keys[j].view(), &ranks[j], sizeof(ranks[j])};
        }
        store::installValueBatch(*st, std::span(ops.data(), n), kValueBytes);
    }
    st->advanceEpoch();
    return st;
}

std::uint64_t
poolUsedBytes(store::ShardedStore &st)
{
    std::uint64_t used = 0;
    st.forEachShard([&used](store::Shard &s) {
        used += s.pool().size() - s.pool().rawAvailable();
    });
    return used;
}

std::uint64_t
logReservedBytes(const StoreShape &shape)
{
    const store::StoreConfig c = storeOptions(shape).config;
    return std::uint64_t{shape.shards} * c.logBuffers * c.logBufferBytes;
}

Counters::Counters()
{
    for (unsigned i = 0; i < v.size(); ++i)
        v[i] = globalStats().get(static_cast<Stat>(i));
}

void
Rounds::merge(const Rounds &o)
{
    if (hist.size() < o.hist.size())
        hist.resize(o.hist.size());
    for (std::size_t i = 0; i < o.hist.size(); ++i)
        hist[i].add(o.hist[i]);
}

std::uint64_t
Rounds::count() const
{
    std::uint64_t n = 0;
    for (const auto &h : hist)
        n += h.count;
    return n;
}

std::vector<double>
Rounds::pctUs(double p) const
{
    std::vector<double> v;
    for (const auto &h : hist)
        if (h.count > 0)
            v.push_back(h.percentile(p) / 1000.0);
    return v;
}

double
Rounds::steadyPctUs(double p) const
{
    return steadyLatency(pctUs(p));
}

std::vector<double>
Rounds::rates() const
{
    std::vector<double> v;
    for (const auto &h : hist)
        v.push_back(static_cast<double>(h.count) * 1e9 / kRoundNs);
    return v;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double at = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(at);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (at - static_cast<double>(lo));
}

double
steadyRate(std::vector<double> rates)
{
    return quantile(std::move(rates), kSteadyQuantile);
}

double
steadyLatency(std::vector<double> us)
{
    return quantile(std::move(us), 1.0 - kSteadyQuantile);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string l;
    while (std::getline(in, l)) {
        if (l.rfind("VmHWM:", 0) == 0)
            return std::strtod(l.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

std::vector<pid_t>
taskIds()
{
    std::vector<pid_t> ids;
    if (DIR *d = opendir("/proc/self/task")) {
        while (dirent *e = readdir(d)) {
            if (e->d_name[0] != '.')
                ids.push_back(static_cast<pid_t>(std::atol(e->d_name)));
        }
        closedir(d);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

TaskUsage
taskUsage(pid_t tid)
{
    TaskUsage u;
    const std::string dir = "/proc/self/task/" + std::to_string(tid);
    std::ifstream stat(dir + "/stat");
    std::string s((std::istreambuf_iterator<char>(stat)),
                  std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    const auto close = s.rfind(')');
    if (close != std::string::npos) {
        std::istringstream rest(s.substr(close + 2));
        std::string field;
        std::uint64_t utime = 0, stime = 0;
        for (int i = 3; i <= 15 && rest >> field; ++i) {
            if (i == 14)
                utime = std::strtoull(field.c_str(), nullptr, 10);
            if (i == 15)
                stime = std::strtoull(field.c_str(), nullptr, 10);
        }
        u.cpuSeconds = static_cast<double>(utime + stime) /
                       static_cast<double>(sysconf(_SC_CLK_TCK));
    }
    std::ifstream io(dir + "/io");
    std::string l;
    while (std::getline(io, l)) {
        if (l.rfind("syscw:", 0) == 0)
            u.syscw = std::strtoull(l.c_str() + 6, nullptr, 10);
    }
    return u;
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

void
line(const char *name, double value, const char *unit)
{
    std::printf("  %-34s %16.6f %s\n", name, value, unit);
}

} // namespace perfbench
