#pragma once
// Sets or unsets one environment variable for a scope and restores its
// ambient value on exit.  Tests that drive a QUDA_SIM_* knob through the
// environment use it so the knob the suite was launched with (for example
// QUDA_SIM_TRACE=<path>) still holds for every other test in the binary.

#include <cstdlib>
#include <optional>
#include <string>

namespace quda {

class ScopedEnv {
public:
  // value == nullptr unsets the variable
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* ambient = std::getenv(name)) saved_ = ambient;
    set(value);
  }
  ~ScopedEnv() { set(saved_ ? saved_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

  void set(const char* value) {
    if (value != nullptr)
      ::setenv(name_.c_str(), value, 1);
    else
      ::unsetenv(name_.c_str());
  }

private:
  std::string name_;
  std::optional<std::string> saved_;
};

} // namespace quda
