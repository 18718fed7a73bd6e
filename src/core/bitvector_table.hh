/**
 * @file
 * The bit vector history table (SILC-FM Section III-A): when a block is
 * swapped out of NM, its subblock-usage bit vector is stored in a small
 * SRAM structure indexed by the XOR of the PC and address of the first
 * subblock swapped in.  When the same (PC, address) signature recurs,
 * the stored vector drives a multi-subblock fetch, recovering spatial
 * locality that single-subblock schemes (CAMEO) leave on the table.
 */

#ifndef SILC_CORE_BITVECTOR_TABLE_HH
#define SILC_CORE_BITVECTOR_TABLE_HH

#include <cstdint>

#include "common/bitvector.hh"
#include "common/sparse_array.hh"
#include "common/types.hh"

namespace silc {
namespace core {

/** Direct-mapped, tagless SRAM table of subblock-usage bit vectors. */
class BitVectorTable
{
  public:
    /** @param entries table size; must be a power of two. */
    explicit BitVectorTable(uint64_t entries);

    /** Index for a (PC, first-subblock-address) signature. */
    uint64_t indexFor(Addr pc, Addr first_addr) const;

    /** Store @p bv under the signature (empty vectors are not stored). */
    void save(Addr pc, Addr first_addr, SubblockVector bv);

    /**
     * Look a signature up.
     * @retval non-empty vector on hit, empty vector on miss.
     */
    SubblockVector lookup(Addr pc, Addr first_addr) const;

    uint64_t entries() const { return entries_; }
    /** Slots holding a non-empty vector (sparse storage footprint). */
    uint64_t populated() const { return table_.size(); }
    uint64_t saves() const { return saves_; }
    uint64_t hits() const { return hits_; }
    uint64_t lookups() const { return lookups_; }

    /** Checkpoint the contents (sparse: non-empty entries only). */
    void checkpoint(Blob &b);

  private:
    /**
     * Populated slots only: a slot is written exclusively with non-empty
     * vectors (save() drops empty ones), so an absent key reads as the
     * empty vector and nothing ever needs erasing.  The paper-size
     * table (1M entries) costs memory only for signatures actually
     * saved.
     */
    SparseArray<uint32_t> table_;
    uint64_t entries_;
    uint64_t mask_;
    uint64_t saves_ = 0;
    mutable uint64_t hits_ = 0;
    mutable uint64_t lookups_ = 0;
};

} // namespace core
} // namespace silc

#endif // SILC_CORE_BITVECTOR_TABLE_HH
