/**
 * @file
 * A per-process scratch directory for tests that touch the filesystem.
 *
 * gtest_discover_tests runs every case in its own process, and
 * `ctest -j` runs those processes concurrently, so a fixed file name
 * (or a per-process counter) under one shared temp directory lets two
 * cases bind, overwrite or unlink each other's files. A mkdtemp
 * directory is unique to the process that made it.
 */

#ifndef EV8_TESTS_TEMP_DIR_HH
#define EV8_TESTS_TEMP_DIR_HH

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace ev8
{

/** A unique directory under /tmp, removed with its contents on exit. */
class TempDir
{
  public:
    TempDir()
    {
        std::string tmpl = "/tmp/ev8-test-XXXXXX";
        if (::mkdtemp(tmpl.data()) == nullptr)
            throw std::runtime_error("mkdtemp failed for " + tmpl);
        path_ = tmpl;
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }

    /** @p name inside the directory. */
    std::string file(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

} // namespace ev8

#endif // EV8_TESTS_TEMP_DIR_HH
