// Lint fixture: library code reading the environment behind its callers' back.
// Expected under src/: BR-HIDDEN-ENV (std::getenv, secure_getenv, environ).
// The digit separators below must not hide the reads after them.
#include <cstdlib>
#include <string>

extern char** environ;

namespace fixture {

constexpr long kLimit = 1'000'000'000L;

bool FastPathEnabled() {
  const char* env = std::getenv("FIXTURE_FAST_PATH");
  return env == nullptr || std::string(env) != "0";
}

bool SecureFastPathEnabled() { return secure_getenv("FIXTURE_FAST_PATH") != nullptr; }

int EnvironmentSize() {
  int n = 0;
  for (char** e = environ; *e != nullptr; ++e) {
    ++n;
  }
  return n;
}

}  // namespace fixture
