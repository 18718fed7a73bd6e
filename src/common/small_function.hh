/**
 * @file
 * A move-only callable wrapper with a large inline buffer.
 *
 * The event queue schedules millions of completion callbacks per run;
 * wrapping each one in std::function heap-allocates as soon as the
 * capture exceeds the library's tiny SBO (16 bytes on libstdc++).
 * SmallFunction keeps captures up to its Capacity inline — sized so the
 * simulator's completion lambdas (a few words of context, or the
 * hierarchy's fill closure around a core's std::function) never touch
 * the allocator — and falls back to the heap only for oversized or
 * over-aligned callables, such as a lambda that chains a captured
 * SmallFunction.
 *
 * Unlike std::function it is move-only, so it can also hold callables
 * with move-only captures.
 */

#ifndef SILC_COMMON_SMALL_FUNCTION_HH
#define SILC_COMMON_SMALL_FUNCTION_HH

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace silc {

template <typename Signature, size_t Capacity = 64>
class SmallFunction;

template <typename R, typename... Args, size_t Capacity>
class SmallFunction<R(Args...), Capacity>
{
  public:
    SmallFunction() = default;
    SmallFunction(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    SmallFunction(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
        } else {
            ::new (static_cast<void *>(buf_))
                Fn *(new Fn(std::forward<F>(f)));
            ops_ = &heapOps<Fn>;
        }
    }

    SmallFunction(SmallFunction &&other) noexcept { moveFrom(other); }

    SmallFunction &
    operator=(SmallFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    SmallFunction(const SmallFunction &) = delete;
    SmallFunction &operator=(const SmallFunction &) = delete;

    ~SmallFunction() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    R
    operator()(Args... args)
    {
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

    /** True when the held callable lives in the inline buffer. */
    bool
    storedInline() const
    {
        return ops_ != nullptr && ops_->inline_storage;
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        void (*relocate)(void *dst, void *src);  ///< move + destroy src
        void (*destroy)(void *);
        bool inline_storage;
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= Capacity && alignof(Fn) <= alignof(void *) &&
            std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *p, Args &&...args) -> R {
            return (*std::launder(reinterpret_cast<Fn *>(p)))(
                std::forward<Args>(args)...);
        },
        [](void *dst, void *src) {
            Fn *s = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void *p) { std::launder(reinterpret_cast<Fn *>(p))->~Fn(); },
        true,
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void *p, Args &&...args) -> R {
            return (**std::launder(reinterpret_cast<Fn **>(p)))(
                std::forward<Args>(args)...);
        },
        [](void *dst, void *src) {
            // Pointers are trivially destructible; relocating is a copy.
            ::new (dst) Fn *(*std::launder(reinterpret_cast<Fn **>(src)));
        },
        [](void *p) { delete *std::launder(reinterpret_cast<Fn **>(p)); },
        false,
    };

    void
    reset()
    {
        if (ops_ != nullptr) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    void
    moveFrom(SmallFunction &other)
    {
        if (other.ops_ != nullptr) {
            other.ops_->relocate(buf_, other.buf_);
            ops_ = other.ops_;
            other.ops_ = nullptr;
        }
    }

    // Pointer-aligned, not max_align_t-aligned: a SmallFunction<.., 64>
    // is then 72 bytes instead of 80, which matters where thousands sit
    // in queues (a DRAM request carries one; HMA's epoch migrations
    // queue thousands of requests at once).  A callable that needs more
    // alignment, which no simulator lambda does, goes to the heap.
    alignas(void *) unsigned char buf_[Capacity];
    const Ops *ops_ = nullptr;
};

} // namespace silc

#endif // SILC_COMMON_SMALL_FUNCTION_HH
