#include "base/fsync.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "base/logging.hh"

namespace rex {

namespace {

void
warnOnce(const char *what, const std::string &target)
{
    static bool warned = false;
    if (warned)
        return;
    warned = true;
    warn(std::string(what) + " '" + target + "': " +
         std::strerror(errno) + " (durability degraded; not repeated)");
}

} // namespace

bool
fsyncFd(int fd)
{
    int rc;
    do {
        rc = ::fsync(fd);
    } while (rc != 0 && errno == EINTR);
    return rc == 0;
}

bool
fsyncPath(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        warnOnce("fsync: cannot open", path);
        return false;
    }
    const bool ok = fsyncFd(fd);
    if (!ok)
        warnOnce("fsync: cannot sync", path);
    ::close(fd);
    return ok;
}

bool
fsyncParentDir(const std::string &path)
{
    std::string dir;
    const std::size_t slash = path.find_last_of('/');
    dir = slash == std::string::npos ? "." : path.substr(0, slash);
    if (dir.empty())
        dir.assign(1, '/');
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) {
        warnOnce("fsync: cannot open directory", dir);
        return false;
    }
    const bool ok = fsyncFd(fd);
    if (!ok)
        warnOnce("fsync: cannot sync directory", dir);
    ::close(fd);
    return ok;
}

} // namespace rex
