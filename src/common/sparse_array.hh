/**
 * @file
 * SparseArray<T>: a lazily materialized, open-addressed flat table
 * keyed by uint64 indices, for capacity-proportional metadata that is
 * touched at footprint scale.
 *
 * The paper-scale configurations (NM 1 GiB / FM 4-16 GiB) make dense
 * per-frame / per-block vectors unaffordable: a 16 GB flat space has
 * 268M 64B blocks, and even one uint64 per block is 2 GiB.  Actual
 * runs only ever touch the working set, so every structure indexed by
 * frame/block/slot/page number stores just the materialized entries
 * and reads an absent key as that entry's home or empty state: a
 * default-constructed T (find() returns nullptr), or the value the
 * caller passes to get().
 *
 * Same flat-table idiom as the MSHR file: power-of-two capacity,
 * Fibonacci-hashed keys, linear probing, amortized growth at 70% load.
 * There is no per-key erase — the users (SILC-FM's NM frame metadata
 * and history table, the translation page table, the rival policies'
 * tables: the DRAM-cache directory, CAMEO's permutation, PoM's
 * residency and counters, HMA's page/frame maps and epoch counts, and
 * the oracle's shadow stores) only ever materialize and clear() —
 * which keeps probing free of deletion markers.
 *
 * Iteration order of the backing table is hash order; forEachSorted()
 * visits entries in ascending key order so checkpoints and sweep
 * diagnostics stay byte-deterministic.
 */

#ifndef SILC_COMMON_SPARSE_ARRAY_HH
#define SILC_COMMON_SPARSE_ARRAY_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace silc {

template <typename T>
class SparseArray
{
  public:
    explicit SparseArray(size_t initial_capacity = 16)
    {
        size_t cap = 16;
        while (cap < initial_capacity)
            cap <<= 1;
        slots_.resize(cap);
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Entry for @p key, or nullptr when not materialized. */
    const T *
    find(uint64_t key) const
    {
        const Slot &s = slots_[probe(key)];
        return s.used ? &s.value : nullptr;
    }

    T *
    find(uint64_t key)
    {
        return const_cast<T *>(
            static_cast<const SparseArray *>(this)->find(key));
    }

    /** Entry for @p key by value, or @p absent when not materialized:
     *  the read for small values, whose absent state the caller names. */
    T
    get(uint64_t key, T absent) const
    {
        const Slot &s = slots_[probe(key)];
        return s.used ? s.value : absent;
    }

    /**
     * Entry for @p key, materializing a default-constructed T.  Looking
     * up a key that is already present never moves the table, so
     * references to other entries stay valid across the call; only an
     * insertion may grow (rehash) it and invalidate them.
     */
    T &
    getOrCreate(uint64_t key)
    {
        size_t i = probe(key);
        if (slots_[i].used)
            return slots_[i].value;
        if ((size_ + 1) * 10 > slots_.size() * 7) {
            grow();
            i = probe(key);
        }
        Slot &s = slots_[i];
        s.used = true;
        s.key = key;
        s.value = T{};
        ++size_;
        return s.value;
    }

    /** Materialize @p key with @p value (overwriting any prior entry). */
    void
    set(uint64_t key, const T &value)
    {
        getOrCreate(key) = value;
    }

    void
    clear()
    {
        for (Slot &s : slots_)
            s.used = false;
        size_ = 0;
    }

    /** Visit materialized entries in hash (arbitrary) order. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const Slot &s : slots_) {
            if (s.used)
                fn(s.key, s.value);
        }
    }

    /** Mutable hash-order visit (aging sweeps). */
    template <typename Fn>
    void
    forEachMutable(Fn fn)
    {
        for (Slot &s : slots_) {
            if (s.used)
                fn(s.key, s.value);
        }
    }

    /** Ascending-key visit: deterministic serialization and sweeps. */
    template <typename Fn>
    void
    forEachSorted(Fn fn) const
    {
        std::vector<uint64_t> keys = sortedKeys();
        for (uint64_t k : keys)
            fn(k, *find(k));
    }

    /** Materialized keys in ascending order. */
    std::vector<uint64_t>
    sortedKeys() const
    {
        std::vector<uint64_t> keys;
        keys.reserve(size_);
        for (const Slot &s : slots_) {
            if (s.used)
                keys.push_back(s.key);
        }
        std::sort(keys.begin(), keys.end());
        return keys;
    }

    /**
     * Checkpoint the materialized entries: their count, then each key in
     * ascending order followed by @p fields(value), which lists the
     * value's fields on @p b.  Reading materializes the entries; a key
     * at or past @p key_limit, or out of order, is fatal (naming
     * @p what).
     */
    template <typename Fields>
    void
    checkpoint(Blob &b, uint64_t key_limit, const char *what, Fields fields)
    {
        const std::vector<uint64_t> keys = sortedKeys();
        uint64_t n = keys.size();
        b.u64(n);
        uint64_t prev = 0;
        for (uint64_t i = 0; i < n; ++i) {
            uint64_t key = b.reading() ? 0 : keys[i];
            b.u64(key);
            if (key >= key_limit || (i > 0 && key <= prev))
                fatal("checkpoint %s: key %llu out of range or order",
                      what, static_cast<unsigned long long>(key));
            prev = key;
            fields(getOrCreate(key));
        }
    }

  private:
    struct Slot
    {
        uint64_t key = 0;
        T value{};
        bool used = false;
    };

    static size_t
    hash(uint64_t key)
    {
        // Fibonacci multiplicative hash: sequential frame/block keys
        // spread across the table instead of clustering one probe run.
        return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> 17);
    }

    /** The slot holding @p key, or the empty slot ending its probe run
     *  (the load bound guarantees one exists). */
    size_t
    probe(uint64_t key) const
    {
        const size_t mask = slots_.size() - 1;
        size_t i = hash(key) & mask;
        while (slots_[i].used && slots_[i].key != key)
            i = (i + 1) & mask;
        return i;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.size() * 2, Slot{});
        const size_t mask = slots_.size() - 1;
        for (Slot &s : old) {
            if (!s.used)
                continue;
            for (size_t i = hash(s.key) & mask;; i = (i + 1) & mask) {
                if (!slots_[i].used) {
                    slots_[i] = std::move(s);
                    break;
                }
            }
        }
    }

    std::vector<Slot> slots_;
    size_t size_ = 0;
};

} // namespace silc

#endif // SILC_COMMON_SPARSE_ARRAY_HH
