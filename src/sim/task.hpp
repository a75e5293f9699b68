// Coroutine task type for simulation processes.
//
// A `Task<T>` is a lazily-started coroutine.  It begins executing when
// awaited (`co_await some_task()`) or when handed to `Simulation::spawn`.
// On completion it resumes its awaiter by symmetric transfer, so arbitrarily
// deep call chains run without growing the machine stack.
//
// Ownership rules:
//   * An awaited task is owned by the temporary/local `Task` object; the
//     coroutine frame is destroyed when that object goes out of scope
//     (after the co_await completes).
//   * A spawned (detached) task owns itself and self-destroys at final
//     suspend.  An exception escaping a detached task terminates the
//     program — simulation processes must handle their own errors.
//     Until then it sits on its simulation's list of live roots, so
//     `Simulation::destroy_detached` can release tasks that never finish.
#pragma once

#include <coroutine>
#include <cstdio>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "sim/frame_pool.hpp"

namespace dpnfs::sim {

namespace detail {

/// Intrusive doubly-linked list node; a list head links to itself.
struct RootLink {
  RootLink* prev = nullptr;
  RootLink* next = nullptr;

  bool linked() const noexcept { return next != nullptr; }
  void link_after(RootLink& head) noexcept {
    prev = &head;
    next = head.next;
    head.next->prev = this;
    head.next = this;
  }
  void unlink() noexcept {
    prev->next = next;
    next->prev = prev;
    prev = next = nullptr;
  }
};

struct PromiseBase : RootLink {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  /// Spawned tasks are linked into their simulation's list of live roots.
  bool detached() const noexcept { return linked(); }

  // Coroutine frames for every Task<T> route through the frame pool; see
  // frame_pool.hpp.  Inherited by each promise_type.
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n);
  }
};

struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }

  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) const noexcept {
    PromiseBase& p = h.promise();
    if (p.detached()) {
      if (p.exception) {
        std::fputs("fatal: exception escaped a detached simulation task\n",
                   stderr);
        std::terminate();
      }
      p.unlink();
      h.destroy();
      return std::noop_coroutine();
    }
    if (p.continuation) return p.continuation;
    return std::noop_coroutine();
  }

  void await_resume() const noexcept {}
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task;

template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    detail::FinalAwaiter final_suspend() noexcept { return {}; }
    void return_value(T v) { value.emplace(std::move(v)); }
    void unhandled_exception() { this->exception = std::current_exception(); }
  };

  using handle_type = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(handle_type h) : h_(h) {}
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (h_) h_.destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  bool valid() const noexcept { return static_cast<bool>(h_); }

  /// Relinquishes ownership of the coroutine frame (used by spawn).
  handle_type release() noexcept { return std::exchange(h_, {}); }

  auto operator co_await() noexcept {
    struct Awaiter {
      handle_type h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
        h.promise().continuation = cont;
        return h;  // start the child by symmetric transfer
      }
      T await_resume() {
        auto& p = h.promise();
        if (p.exception) std::rethrow_exception(p.exception);
        return std::move(*p.value);
      }
    };
    return Awaiter{h_};
  }

 private:
  handle_type h_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    detail::FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { this->exception = std::current_exception(); }
  };

  using handle_type = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(handle_type h) : h_(h) {}
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (h_) h_.destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  bool valid() const noexcept { return static_cast<bool>(h_); }
  handle_type release() noexcept { return std::exchange(h_, {}); }

  auto operator co_await() noexcept {
    struct Awaiter {
      handle_type h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
        h.promise().continuation = cont;
        return h;
      }
      void await_resume() {
        auto& p = h.promise();
        if (p.exception) std::rethrow_exception(p.exception);
      }
    };
    return Awaiter{h_};
  }

 private:
  handle_type h_;
};

}  // namespace dpnfs::sim
