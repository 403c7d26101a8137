/**
 * @file
 * Abstract syntax tree for the PTX dialect.
 */
#ifndef NVBIT_PTX_AST_HPP
#define NVBIT_PTX_AST_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ptx/compiler.hpp"

namespace nvbit::ptx {

/** Class of a declared virtual register. */
enum class RegClass : uint8_t { B32, B64, Pred };

/** One instruction operand as written in the source. */
struct AsmOperand {
    enum class Kind : uint8_t {
        Reg,    ///< %r3
        Int,    ///< 42
        Float,  ///< 1.5 / 0f3F800000
        Sym,    ///< bare identifier: param/local/shared/global/special
        Mem     ///< [base (+/- imm)] where base is a Reg or Sym
    };
    Kind kind = Kind::Int;
    std::string name;       ///< Reg/Sym name; Mem base name
    bool base_is_reg = false; ///< Mem: base is a register
    int64_t ival = 0;       ///< Int value / Mem displacement
    float fval = 0.0f;      ///< Float value
};

/** One parsed instruction (or call). */
struct AsmInstr {
    std::string pred;       ///< guard predicate register ("" = none)
    bool pred_neg = false;
    std::string opcode;     ///< dotted mnemonic, e.g. "add.u32"
    std::vector<AsmOperand> ops;

    bool is_call = false;
    std::string callee;
    std::vector<std::string> call_args; ///< register names
    std::string call_ret;               ///< register name ("" = none)

    int line = 0;        ///< line in the PTX source (for diagnostics)
    int loc_file = -1;   ///< .loc file index (-1 = none)
    int loc_line = 0;    ///< .loc source line
};

/** A body statement: either a label or an instruction. */
struct Stmt {
    bool is_label = false;
    std::string label;
    AsmInstr instr;
};

/** A .local/.shared/.global/.const variable. */
struct VarDecl {
    std::string name;
    uint64_t size_bytes = 0;
    unsigned align = 4;
    std::vector<uint8_t> init;
    int line = 0; ///< line in the PTX source (for diagnostics)
};

struct FuncDecl {
    std::string name;
    bool is_entry = false;
    std::vector<ParamInfo> params;
    bool has_ret = false;
    ParamInfo ret;
    /** Declared virtual registers: name -> class. */
    std::map<std::string, RegClass> regs;
    std::vector<VarDecl> locals;
    std::vector<VarDecl> shareds;
    std::vector<Stmt> body;
    int line = 0;
};

struct ModuleDecl {
    std::vector<FuncDecl> funcs;
    std::vector<VarDecl> globals;
    std::vector<VarDecl> consts;
    /** .file index -> name. */
    std::map<int, std::string> files;
};

/** Parse tokenized PTX into a module AST.  @throws CompileError. */
ModuleDecl parseModule(const std::string &source);

} // namespace nvbit::ptx

#endif // NVBIT_PTX_AST_HPP
