// A non-owning reference to a callable, invoked through one function pointer.
// It binds to lvalues only, so it cannot hold a temporary lambda that dies
// before the call; the callable must outlive the reference.

#ifndef POLLUX_UTIL_FUNCTION_REF_H_
#define POLLUX_UTIL_FUNCTION_REF_H_

#include <memory>
#include <type_traits>

namespace pollux {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  FunctionRef() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cv_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F& f)  // NOLINT(google-explicit-constructor): binds like a reference.
      : callable_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        invoke_([](void* callable, Args... args) -> R {
          return (*static_cast<F*>(callable))(args...);
        }) {}

  R operator()(Args... args) const { return invoke_(callable_, args...); }
  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  void* callable_ = nullptr;
  R (*invoke_)(void*, Args...) = nullptr;
};

}  // namespace pollux

#endif  // POLLUX_UTIL_FUNCTION_REF_H_
