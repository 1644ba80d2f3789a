#include "common/binio.hh"

#include <atomic>
#include <cstdio>
#include <cstring>

#include <unistd.h>

namespace qcc {

// ------------------------------------------------------ BinaryWriter

void
BinaryWriter::u8(uint8_t v)
{
    buf.push_back(char(v));
}

void
BinaryWriter::u32(uint32_t v)
{
    buf.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
BinaryWriter::u64(uint64_t v)
{
    buf.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
BinaryWriter::f64(double v)
{
    buf.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
BinaryWriter::str(const std::string &s)
{
    u64(s.size());
    buf.append(s);
}

void
BinaryWriter::doubles(const std::vector<double> &v)
{
    u64(v.size());
    buf.append(reinterpret_cast<const char *>(v.data()),
               v.size() * sizeof(double));
}

void
BinaryWriter::u64s(const std::vector<uint64_t> &v)
{
    u64(v.size());
    buf.append(reinterpret_cast<const char *>(v.data()),
               v.size() * sizeof(uint64_t));
}

// ------------------------------------------------------ BinaryReader

void
BinaryReader::need(size_t n) const
{
    if (data.size() - pos < n)
        throw BinioError("truncated: need " + std::to_string(n) +
                             " bytes, have " +
                             std::to_string(data.size() - pos),
                         pos);
}

size_t
BinaryReader::count(size_t elem_size)
{
    const uint64_t n = u64();
    // The length prefix must be satisfiable by the bytes actually
    // present; anything else is corruption, caught before allocating.
    if (elem_size != 0 && n > remaining() / elem_size)
        throw BinioError("length prefix " + std::to_string(n) +
                             " exceeds remaining payload",
                         pos);
    return size_t(n);
}

uint8_t
BinaryReader::u8()
{
    need(1);
    return uint8_t(data[pos++]);
}

uint32_t
BinaryReader::u32()
{
    need(sizeof(uint32_t));
    uint32_t v;
    std::memcpy(&v, data.data() + pos, sizeof(v));
    pos += sizeof(v);
    return v;
}

uint64_t
BinaryReader::u64()
{
    need(sizeof(uint64_t));
    uint64_t v;
    std::memcpy(&v, data.data() + pos, sizeof(v));
    pos += sizeof(v);
    return v;
}

double
BinaryReader::f64()
{
    need(sizeof(double));
    double v;
    std::memcpy(&v, data.data() + pos, sizeof(v));
    pos += sizeof(v);
    return v;
}

std::string
BinaryReader::str()
{
    const size_t n = count(1);
    need(n);
    std::string s(data.data() + pos, n);
    pos += n;
    return s;
}

std::vector<double>
BinaryReader::doubles()
{
    const size_t n = count(sizeof(double));
    need(n * sizeof(double));
    std::vector<double> v(n);
    if (n) // an empty vector's data() may be null
        std::memcpy(v.data(), data.data() + pos, n * sizeof(double));
    pos += n * sizeof(double);
    return v;
}

std::vector<uint64_t>
BinaryReader::u64s()
{
    const size_t n = count(sizeof(uint64_t));
    need(n * sizeof(uint64_t));
    std::vector<uint64_t> v(n);
    if (n) // an empty vector's data() may be null
        std::memcpy(v.data(), data.data() + pos, n * sizeof(uint64_t));
    pos += n * sizeof(uint64_t);
    return v;
}

// ------------------------------------------------------------- misc

uint64_t
fnv1a(const void *data, size_t n, uint64_t seed)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    uint64_t h = seed;
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

bool
readFileBytes(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out.clear();
    char chunk[1 << 16];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        out.append(chunk, n);
    const bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

bool
atomicWriteFile(const std::string &path, std::string_view data)
{
    // Unique per (process, call) temp name on the same filesystem so
    // the final rename is atomic; two writers racing on one path both
    // succeed and the file holds one complete payload either way.
    static std::atomic<uint64_t> counter{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(uint64_t(getpid())) + "." +
        std::to_string(counter.fetch_add(1));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    const size_t written = std::fwrite(data.data(), 1, data.size(), f);
    const bool ok = written == data.size() && std::fclose(f) == 0;
    if (!ok) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace qcc
