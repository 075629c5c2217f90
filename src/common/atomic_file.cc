#include "common/atomic_file.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace tiqec::common {

namespace {

std::string
Errno(const std::string& what, const std::string& path)
{
    return what + " '" + path + "': " + std::strerror(errno);
}

}  // namespace

bool
AtomicWriteFile(const std::string& path, const std::string& content,
                std::string* error)
{
    // The temp file must live on the same filesystem as the target for
    // rename() to be atomic, so it is a sibling, not a /tmp file. Its
    // name is unique per write (process id + per-process counter):
    // concurrent writers of one path — pool workers of one sweep, or
    // processes sharing a store — must not truncate each other's temp
    // file. Each renames its own complete file over the target, so the
    // last rename wins and a reader never sees a partial file.
    static std::atomic<std::uint64_t> next_tmp{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(next_tmp.fetch_add(1, std::memory_order_relaxed));
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
        if (error != nullptr) {
            *error = Errno("cannot open temp file", tmp);
        }
        return false;
    }
    const size_t written = content.empty()
                               ? 0
                               : std::fwrite(content.data(), 1,
                                             content.size(), f);
    // fclose flushes buffered data; its result is where ENOSPC actually
    // surfaces, so it must be checked even after a successful fwrite.
    const bool closed = std::fclose(f) == 0;
    if (written != content.size() || !closed) {
        if (error != nullptr) {
            *error = Errno("short write to temp file", tmp);
        }
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (error != nullptr) {
            *error = Errno("cannot rename temp file over", path);
        }
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
ReadFile(const std::string& path, std::string* content, std::string* error)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        if (error != nullptr) {
            *error = Errno("cannot open", path);
        }
        return false;
    }
    // Read straight into the string, sized from the file up front, then
    // append whatever a file that grew meanwhile still holds.
    content->clear();
    if (std::fseek(f, 0, SEEK_END) == 0) {
        const long size = std::ftell(f);
        if (size > 0) {
            content->resize(static_cast<size_t>(size));
        }
        std::rewind(f);
    }
    content->resize(std::fread(content->data(), 1, content->size(), f));
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        content->append(buf, n);
    }
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!ok) {
        if (error != nullptr) {
            *error = Errno("read error on", path);
        }
        return false;
    }
    return true;
}

}  // namespace tiqec::common
