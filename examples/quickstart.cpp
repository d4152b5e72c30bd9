/**
 * @file
 * Quickstart: create a durable Masstree in a simulated NVM pool, insert
 * and read a few keys, take a checkpoint, and show what a crash loses
 * (everything after the checkpoint) and keeps (everything before).
 *
 * Build & run:  ./examples/quickstart
 */
#include <cstdio>
#include <cstring>
#include <memory>

#include "masstree/durable_tree.h"

using incll::mt::DurableMasstree;

namespace {

/** Store a C string as a durable value buffer. */
void *
makeValue(DurableMasstree &db, const char *text)
{
    const std::size_t len = std::strlen(text) + 1;
    void *buf = db.allocValue(len);
    incll::nvm::pmemcpy(buf, text, len);
    return buf;
}

void
show(DurableMasstree &db, const char *key)
{
    void *out = nullptr;
    if (db.get(key, out))
        std::printf("  %-12s -> %s\n", key, static_cast<char *>(out));
    else
        std::printf("  %-12s -> (not found)\n", key);
}

} // namespace

int
main()
{
    // 1. A pool of simulated persistent memory. kTracked gives us the
    //    full crash model; production code on real NVM would mmap a DAX
    //    file instead (see DESIGN.md, substitutions).
    auto pool = std::make_unique<incll::nvm::Pool>(
        std::size_t{1} << 26, incll::nvm::Mode::kTracked);
    incll::nvm::registerTrackedPool(*pool);

    std::printf("== creating a fresh durable tree ==\n");
    auto db = std::make_unique<DurableMasstree>(*pool);

    db->put("greeting", makeValue(*db, "hello, NVM"));
    db->put("paper", makeValue(*db, "ASPLOS 2019"));
    show(*db, "greeting");
    show(*db, "paper");

    // 2. A fine-grain checkpoint: the epoch boundary flushes the cache,
    //    making everything written so far durable. In a real deployment
    //    an EpochService takes one every 64 ms epoch
    //    (examples/epoch_service.cpp).
    db->advanceEpoch();
    std::printf("== checkpoint taken ==\n");

    // 3. Post-checkpoint writes are absorbed by the In-Cache-Line Logs —
    //    no cache flushes on this path.
    db->put("greeting", makeValue(*db, "hello, again"));
    db->put("volatile", makeValue(*db, "not yet checkpointed"));
    show(*db, "greeting");
    show(*db, "volatile");

    // 4. Power failure. The pool keeps only what reached "NVM".
    std::printf("== simulated crash ==\n");
    db.reset();
    pool->crash();

    // 5. Recovery: the external log is applied eagerly; nodes repair
    //    themselves lazily from their InCLLs as they are touched.
    db = std::make_unique<DurableMasstree>(*pool, DurableMasstree::kRecover);
    std::printf("== recovered to the last checkpoint ==\n");
    show(*db, "greeting"); // back to "hello, NVM"
    show(*db, "paper");
    show(*db, "volatile"); // gone: written after the checkpoint

    incll::nvm::unregisterTrackedPool(*pool);
    return 0;
}
