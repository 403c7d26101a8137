#include "ptx/compiler.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "ptx/ast.hpp"
#include "ptx/codegen.hpp"

namespace nvbit::ptx {

namespace {

uint32_t
alignUp(uint32_t v, uint32_t a)
{
    return (v + a - 1) & ~(a - 1);
}

} // namespace

const CompiledFunction *
CompiledModule::findFunction(const std::string &name) const
{
    for (const CompiledFunction &f : functions)
        if (f.name == name)
            return &f;
    return nullptr;
}

CompiledModule
compile(const std::string &source, isa::ArchFamily family,
        const CompileOptions &opts)
{
    ModuleDecl ast = parseModule(source);

    CompiledModule mod;
    mod.family = family;
    ModuleLayout layout;
    layout.const_bank = opts.const_bank;

    // Source files referenced by .loc.
    for (const auto &[idx, name] : ast.files) {
        layout.file_index[idx] = static_cast<uint32_t>(mod.files.size());
        mod.files.push_back(name);
    }

    // Bank 1: .const data first, then one 8-byte address slot per
    // .global (the loader fills those).
    uint32_t off = 0;
    auto place = [&](const VarDecl &v, uint32_t align, uint64_t bytes) {
        off = alignUp(off, align);
        if (off + bytes > kMaxConstBytes)
            throw CompileError{
                strfmt("constant bank needs more than %llu bytes at '%s'",
                       static_cast<unsigned long long>(kMaxConstBytes),
                       v.name.c_str()),
                v.line};
        uint32_t at = off;
        off += static_cast<uint32_t>(bytes);
        return at;
    };
    for (const VarDecl &c : ast.consts) {
        uint32_t at = place(c, c.align, c.size_bytes);
        layout.const_off[c.name] = at;
        mod.bank1.resize(off, 0);
        std::copy(c.init.begin(), c.init.end(), mod.bank1.begin() + at);
    }
    for (const VarDecl &g : ast.globals) {
        uint32_t at = place(g, 8, 8);
        layout.global_slot[g.name] = at;
        GlobalVar gv;
        gv.name = g.name;
        gv.size_bytes = g.size_bytes;
        gv.addr_slot = at;
        gv.init = g.init;
        mod.globals.push_back(std::move(gv));
    }
    mod.bank1.resize(off, 0);

    // Duplicate-symbol checks.
    for (size_t i = 0; i < ast.funcs.size(); ++i) {
        for (size_t j = i + 1; j < ast.funcs.size(); ++j) {
            if (ast.funcs[i].name == ast.funcs[j].name) {
                throw CompileError{
                    strfmt("duplicate function '%s'",
                           ast.funcs[i].name.c_str()),
                    ast.funcs[j].line};
            }
        }
    }

    for (const FuncDecl &fn : ast.funcs)
        mod.functions.push_back(compileFunction(fn, layout, family));

    // Resolve intra-module call targets (existence check only; the
    // loader patches addresses).  Unknown names may still be resolved
    // against the NVBit built-in device functions at load time.
    return mod;
}

} // namespace nvbit::ptx
