/**
 * @file
 * A small durable key-value store built on the public API: string keys
 * and string values with a typed wrapper, explicit checkpoints, and a
 * REPL-style scripted session that survives a crash.
 *
 * Shows the intended embedding pattern: the application never calls
 * flush/fence itself — it writes values into durable buffers, inserts
 * them, and relies on fine-grain checkpointing for durability with
 * bounded (one epoch) data loss. A server runs its stores under an
 * EpochService that takes a checkpoint every 64 ms epoch (see
 * examples/epoch_service.cpp); this session takes them by hand, so its
 * output does not depend on the scheduler.
 *
 * Build & run:  ./examples/durable_kv
 */
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "masstree/durable_tree.h"

namespace {

/** Typed string->string store over DurableMasstree. */
class DurableKv
{
  public:
    explicit DurableKv(incll::nvm::Pool &pool)
        : db_(std::make_unique<incll::mt::DurableMasstree>(pool))
    {
    }

    DurableKv(incll::nvm::Pool &pool, incll::mt::DurableMasstree::RecoverTag)
        : db_(std::make_unique<incll::mt::DurableMasstree>(
              pool, incll::mt::DurableMasstree::kRecover))
    {
    }

    void
    set(std::string_view key, std::string_view value)
    {
        // Value layout: u32 length + bytes, in a durable buffer.
        const std::size_t need = value.size() + 4;
        void *buf = db_->allocValue(need);
        const auto len = static_cast<std::uint32_t>(value.size());
        incll::nvm::pmemcpy(buf, &len, 4);
        incll::nvm::pmemcpy(static_cast<char *>(buf) + 4, value.data(),
                            value.size());
        void *old = nullptr;
        if (!db_->put(key, buf, &old)) {
            std::uint32_t oldLen;
            std::memcpy(&oldLen, old, 4);
            db_->freeValue(old, oldLen + 4);
        }
    }

    std::optional<std::string>
    get(std::string_view key)
    {
        void *out = nullptr;
        if (!db_->get(key, out))
            return std::nullopt;
        std::uint32_t len;
        std::memcpy(&len, out, 4);
        return std::string(static_cast<char *>(out) + 4, len);
    }

    bool
    del(std::string_view key)
    {
        void *old = nullptr;
        if (!db_->remove(key, &old))
            return false;
        std::uint32_t len;
        std::memcpy(&len, old, 4);
        db_->freeValue(old, len + 4);
        return true;
    }

    /** List keys with a given prefix (uses the ordered scan). */
    std::size_t
    listPrefix(std::string_view prefix)
    {
        std::size_t n = 0;
        db_->scan(prefix, SIZE_MAX,
                  [&](std::string_view key, void *) {
                      if (key.substr(0, prefix.size()) != prefix)
                          return;
                      std::printf("    %.*s\n",
                                  static_cast<int>(key.size()),
                                  key.data());
                      ++n;
                  });
        return n;
    }

    incll::mt::DurableMasstree &db() { return *db_; }

  private:
    std::unique_ptr<incll::mt::DurableMasstree> db_;
};

} // namespace

int
main()
{
    auto pool = std::make_unique<incll::nvm::Pool>(
        std::size_t{1} << 26, incll::nvm::Mode::kTracked);
    incll::nvm::registerTrackedPool(*pool);

    auto kv = std::make_unique<DurableKv>(*pool);

    std::printf("populating user profiles...\n");
    kv->set("user/ada/name", "Ada Lovelace");
    kv->set("user/ada/lang", "analytical engine notes");
    kv->set("user/alan/name", "Alan Turing");
    kv->set("user/alan/lang", "lambda-free machines");
    kv->set("config/theme", "solarized");

    // An epoch boundary commits the writes: durability lag is at most
    // one epoch.
    kv->db().advanceEpoch();
    std::printf("checkpoint taken\n");

    kv->set("scratch/tmp1", "this write may be lost");
    kv->set("scratch/tmp2", "so may this one");

    std::printf("keys under user/ before crash:\n");
    kv->listPrefix("user/");

    // Crash and recover.
    std::printf("!! crash\n");
    kv.reset();
    pool->crash();
    kv = std::make_unique<DurableKv>(*pool,
                                     incll::mt::DurableMasstree::kRecover);

    std::printf("after recovery:\n");
    std::printf("  user/ada/name  = %s\n",
                kv->get("user/ada/name").value_or("(lost)").c_str());
    std::printf("  user/alan/name = %s\n",
                kv->get("user/alan/name").value_or("(lost)").c_str());
    std::printf("  config/theme   = %s\n",
                kv->get("config/theme").value_or("(lost)").c_str());
    std::printf("  scratch/tmp1   = %s\n",
                kv->get("scratch/tmp1").value_or("(lost)").c_str());
    std::printf("keys under user/ after recovery:\n");
    kv->listPrefix("user/");

    // The checkpointed profile survived; the writes after it did not.
    const bool ok = kv->get("user/ada/name") && kv->get("config/theme") &&
                    !kv->get("scratch/tmp1") && !kv->get("scratch/tmp2");

    kv->del("config/theme");
    std::printf("deleted config/theme: %s\n",
                kv->get("config/theme") ? "still there?!" : "gone");

    incll::nvm::unregisterTrackedPool(*pool);
    return ok ? 0 : 1;
}
