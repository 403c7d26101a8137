#include "driver/module_image.hpp"

#include <cstring>

#include "common/logging.hpp"

namespace nvbit::cudrv {

namespace {

constexpr char kMagic[8] = {'N', 'V', 'S', 'C', 'U', 'B', 'I', 'N'};
constexpr uint32_t kVersion = 1;

/** Append-only little-endian byte writer. */
class Writer
{
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    void
    bytes(const std::vector<uint8_t> &b)
    {
        u32(static_cast<uint32_t>(b.size()));
        buf_.insert(buf_.end(), b.begin(), b.end());
    }

    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

/** Bounds-checked little-endian byte reader. */
class Reader
{
  public:
    Reader(const uint8_t *data, size_t size) : data_(data), size_(size) {}

    bool ok() const { return ok_; }

    uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return data_[pos_++];
    }

    uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::string
    str()
    {
        uint32_t len = u32();
        if (!need(len))
            return {};
        std::string s(reinterpret_cast<const char *>(data_ + pos_), len);
        pos_ += len;
        return s;
    }

    std::vector<uint8_t>
    bytes()
    {
        uint32_t len = u32();
        if (!need(len))
            return {};
        std::vector<uint8_t> b(data_ + pos_, data_ + pos_ + len);
        pos_ += len;
        return b;
    }

  private:
    bool
    need(size_t n)
    {
        if (!ok_ || pos_ + n > size_) {
            ok_ = false;
            return false;
        }
        return true;
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
    bool ok_ = true;
};

void
writeFunc(Writer &w, const FuncImage &f)
{
    w.str(f.name);
    w.u8(f.is_entry ? 1 : 0);
    w.u32(f.num_regs);
    w.u32(f.frame_bytes);
    w.u32(f.shared_bytes);
    w.u32(f.param_bytes);
    w.u32(static_cast<uint32_t>(f.params.size()));
    for (const ptx::ParamInfo &p : f.params) {
        w.str(p.name);
        w.u8(static_cast<uint8_t>(p.kind));
        w.u32(p.bank0_offset);
    }
    w.u32(static_cast<uint32_t>(f.related.size()));
    for (const std::string &r : f.related)
        w.str(r);
    w.u32(static_cast<uint32_t>(f.relocs.size()));
    for (const ptx::CallReloc &r : f.relocs) {
        w.u32(r.instr_index);
        w.str(r.callee);
    }
    w.u32(static_cast<uint32_t>(f.line_info.size()));
    for (const ptx::LineInfo &l : f.line_info) {
        w.u32(l.instr_index);
        w.u32(l.file_index);
        w.u32(l.line);
    }
    w.u8(f.uses_device_api ? 1 : 0);
    w.bytes(f.code);
}

bool
readFunc(Reader &r, FuncImage &f)
{
    f.name = r.str();
    f.is_entry = r.u8() != 0;
    f.num_regs = r.u32();
    f.frame_bytes = r.u32();
    f.shared_bytes = r.u32();
    f.param_bytes = r.u32();
    uint32_t np = r.u32();
    for (uint32_t i = 0; i < np && r.ok(); ++i) {
        ptx::ParamInfo p;
        p.name = r.str();
        p.kind = static_cast<ptx::ParamKind>(r.u8());
        p.bank0_offset = r.u32();
        f.params.push_back(std::move(p));
    }
    uint32_t nr = r.u32();
    for (uint32_t i = 0; i < nr && r.ok(); ++i)
        f.related.push_back(r.str());
    uint32_t nrl = r.u32();
    for (uint32_t i = 0; i < nrl && r.ok(); ++i) {
        ptx::CallReloc rl;
        rl.instr_index = r.u32();
        rl.callee = r.str();
        f.relocs.push_back(std::move(rl));
    }
    uint32_t nl = r.u32();
    for (uint32_t i = 0; i < nl && r.ok(); ++i) {
        ptx::LineInfo l;
        l.instr_index = r.u32();
        l.file_index = r.u32();
        l.line = r.u32();
        f.line_info.push_back(l);
    }
    f.uses_device_api = r.u8() != 0;
    f.code = r.bytes();
    return r.ok();
}

/**
 * Everything the launch path trusts about a function: each parameter
 * is a known kind lying inside bank 0, the resource sizes are within
 * the compiler's caps, and the code is whole instructions.
 */
bool
validFunc(const FuncImage &f, size_t ib)
{
    if (f.param_bytes > ptx::kMaxConstBytes ||
        f.shared_bytes > ptx::kMaxSharedBytes ||
        f.frame_bytes > ptx::kMaxLocalBytes || f.code.size() % ib != 0)
        return false;
    for (const ptx::ParamInfo &p : f.params) {
        if (p.kind != ptx::ParamKind::U32 && p.kind != ptx::ParamKind::U64)
            return false;
        if (uint64_t{p.bank0_offset} + ptx::paramBytes(p.kind) >
            f.param_bytes)
            return false;
    }
    return true;
}

FuncImage
toImage(const ptx::CompiledFunction &cf, isa::ArchFamily family)
{
    FuncImage f;
    f.name = cf.name;
    f.is_entry = cf.is_entry;
    f.code = isa::encodeAll(family, cf.code);
    f.num_regs = cf.num_regs;
    f.frame_bytes = cf.frame_bytes;
    f.shared_bytes = cf.shared_bytes;
    f.param_bytes = cf.param_bytes;
    f.params = cf.params;
    f.related = cf.related;
    f.relocs = cf.relocs;
    f.line_info = cf.line_info;
    f.uses_device_api = cf.uses_device_api;
    return f;
}

} // namespace

std::vector<uint8_t>
serializeModule(const ptx::CompiledModule &mod)
{
    Writer w;
    for (char c : kMagic)
        w.u8(static_cast<uint8_t>(c));
    w.u32(kVersion);
    w.u8(static_cast<uint8_t>(mod.family));

    w.u32(static_cast<uint32_t>(mod.files.size()));
    for (const std::string &f : mod.files)
        w.str(f);

    w.bytes(mod.bank1);

    w.u32(static_cast<uint32_t>(mod.globals.size()));
    for (const ptx::GlobalVar &g : mod.globals) {
        w.str(g.name);
        w.u64(g.size_bytes);
        w.u32(g.addr_slot);
        w.bytes(g.init);
    }

    w.u32(static_cast<uint32_t>(mod.functions.size()));
    for (const ptx::CompiledFunction &cf : mod.functions)
        writeFunc(w, toImage(cf, mod.family));

    return w.take();
}

bool
isBinaryImage(const void *image, size_t size)
{
    return size >= sizeof(kMagic) &&
           std::memcmp(image, kMagic, sizeof(kMagic)) == 0;
}

bool
deserializeModule(const void *image, size_t size, ModuleData &out)
{
    if (!isBinaryImage(image, size))
        return false;
    Reader r(static_cast<const uint8_t *>(image), size);
    for (size_t i = 0; i < sizeof(kMagic); ++i)
        r.u8();
    uint32_t ver = r.u32();
    if (ver != kVersion)
        return false;
    out = ModuleData{};
    const uint8_t family = r.u8();
    if (family > static_cast<uint8_t>(isa::ArchFamily::SM7x))
        return false;
    out.family = static_cast<isa::ArchFamily>(family);

    uint32_t nf = r.u32();
    for (uint32_t i = 0; i < nf && r.ok(); ++i)
        out.files.push_back(r.str());

    out.bank1 = r.bytes();

    uint32_t ng = r.u32();
    for (uint32_t i = 0; i < ng && r.ok(); ++i) {
        ptx::GlobalVar g;
        g.name = r.str();
        g.size_bytes = r.u64();
        g.addr_slot = r.u32();
        g.init = r.bytes();
        // placeModule copies the initialiser into the global and the
        // global's 8-byte address into its bank-1 slot.
        if (g.init.size() > g.size_bytes ||
            uint64_t{g.addr_slot} + 8 > out.bank1.size())
            return false;
        out.globals.push_back(std::move(g));
    }

    const size_t ib = isa::instrBytes(out.family);
    uint32_t nfn = r.u32();
    for (uint32_t i = 0; i < nfn && r.ok(); ++i) {
        FuncImage f;
        if (!readFunc(r, f) || !validFunc(f, ib))
            return false;
        // placeModule patches the CAL each relocation names.
        for (const ptx::CallReloc &rl : f.relocs) {
            isa::Instruction in;
            const uint64_t at = uint64_t{rl.instr_index} * ib;
            if (at + ib > f.code.size() ||
                !isa::decode(out.family, f.code.data() + at, in) ||
                in.op != isa::Opcode::CAL)
                return false;
        }
        out.functions.push_back(std::move(f));
    }
    return r.ok();
}

ModuleData
fromCompiled(const ptx::CompiledModule &mod)
{
    ModuleData out;
    out.family = mod.family;
    out.files = mod.files;
    out.bank1 = mod.bank1;
    out.globals = mod.globals;
    for (const ptx::CompiledFunction &cf : mod.functions)
        out.functions.push_back(toImage(cf, mod.family));
    return out;
}

} // namespace nvbit::cudrv
