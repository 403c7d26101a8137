#include "ptx/ast.hpp"

#include <cstring>

#include "common/logging.hpp"
#include "ptx/lexer.hpp"

namespace nvbit::ptx {

namespace {

/** Recursive-descent parser over the token stream. */
class Parser
{
  public:
    explicit Parser(const std::string &src) : toks_(tokenize(src)) {}

    ModuleDecl
    parse()
    {
        ModuleDecl mod;
        while (!at(TokKind::End)) {
            if (acceptIdent(".version") || acceptIdent(".target") ||
                acceptIdent(".address_size")) {
                // Skip directive payload up to ';' or end of line token.
                while (!at(TokKind::End) && !acceptPunct(";")) {
                    if (peek().kind == TokKind::Ident &&
                        peek().text[0] == '.')
                        break; // next directive (no ';' used)
                    advance();
                }
                continue;
            }
            if (acceptIdent(".file")) {
                int idx = static_cast<int>(expectInt());
                std::string name = expectStr();
                mod.files[idx] = name;
                acceptPunct(";");
                continue;
            }
            bool visible = acceptIdent(".visible");
            (void)visible;
            if (checkIdent(".entry") || checkIdent(".func")) {
                mod.funcs.push_back(parseFunc());
                continue;
            }
            if (acceptIdent(".global")) {
                mod.globals.push_back(parseVar());
                continue;
            }
            if (acceptIdent(".const")) {
                mod.consts.push_back(parseVar());
                continue;
            }
            error(strfmt("unexpected token '%s' at module scope",
                         peek().text.c_str()));
        }
        return mod;
    }

  private:
    [[noreturn]] void
    error(const std::string &msg) const
    {
        throw CompileError{msg, peek().line};
    }

    const Token &peek() const { return toks_[pos_]; }
    const Token &advance() { return toks_[pos_++]; }
    bool at(TokKind k) const { return peek().kind == k; }

    bool
    checkIdent(const char *s) const
    {
        return peek().kind == TokKind::Ident && peek().text == s;
    }

    bool
    acceptIdent(const char *s)
    {
        if (checkIdent(s)) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    checkPunct(const char *s) const
    {
        return peek().kind == TokKind::Punct && peek().text == s;
    }

    bool
    acceptPunct(const char *s)
    {
        if (checkPunct(s)) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    expectPunct(const char *s)
    {
        if (!acceptPunct(s))
            error(strfmt("expected '%s', found '%s'", s,
                         peek().text.c_str()));
    }

    std::string
    expectIdent()
    {
        if (!at(TokKind::Ident))
            error(strfmt("expected identifier, found '%s'",
                         peek().text.c_str()));
        return advance().text;
    }

    int64_t
    expectInt()
    {
        bool neg = acceptPunct("-");
        if (!at(TokKind::IntLit))
            error(strfmt("expected integer, found '%s'",
                         peek().text.c_str()));
        int64_t v = advance().ival;
        return neg ? -v : v;
    }

    std::string
    expectStr()
    {
        if (!at(TokKind::StrLit))
            error("expected string literal");
        return advance().text;
    }

    // --- Types ----------------------------------------------------------

    static bool
    typeToken(const std::string &s, RegClass &cls, unsigned &bytes)
    {
        if (s == ".u32" || s == ".s32" || s == ".b32" || s == ".f32") {
            cls = RegClass::B32;
            bytes = 4;
            return true;
        }
        if (s == ".u64" || s == ".s64" || s == ".b64" || s == ".f64") {
            cls = RegClass::B64;
            bytes = 8;
            return true;
        }
        if (s == ".pred") {
            cls = RegClass::Pred;
            bytes = 0;
            return true;
        }
        if (s == ".b8" || s == ".u8" || s == ".s8") {
            cls = RegClass::B32;
            bytes = 1;
            return true;
        }
        if (s == ".b16" || s == ".u16" || s == ".s16") {
            cls = RegClass::B32;
            bytes = 2;
            return true;
        }
        return false;
    }

    std::string
    expectTypeToken(RegClass &cls, unsigned &bytes)
    {
        std::string t = expectIdent();
        if (!typeToken(t, cls, bytes))
            error(strfmt("unknown type '%s'", t.c_str()));
        return t;
    }

    // --- Variables --------------------------------------------------------

    VarDecl
    parseVar()
    {
        // (type already consumed by caller for .global/.const;
        //  here parse: .u32 name[(N)]? (= init)? ;
        VarDecl v;
        v.line = peek().line;
        RegClass cls;
        unsigned ebytes;
        expectTypeToken(cls, ebytes);
        if (ebytes == 0)
            error(".pred variables are not supported");
        v.align = ebytes < 4 ? 4 : ebytes;
        v.name = expectIdent();
        uint64_t count = 1;
        if (acceptPunct("[")) {
            count = static_cast<uint64_t>(expectInt());
            expectPunct("]");
        }
        // Also rejects negative counts, which wrap to huge ones.
        if (count > kMaxVarBytes / ebytes)
            error(strfmt("variable '%s' is larger than %llu bytes",
                         v.name.c_str(),
                         static_cast<unsigned long long>(kMaxVarBytes)));
        v.size_bytes = count * ebytes;
        if (acceptPunct("=")) {
            v.init = parseInit(ebytes, count);
        }
        expectPunct(";");
        return v;
    }

    std::vector<uint8_t>
    parseInit(unsigned ebytes, uint64_t count)
    {
        std::vector<uint8_t> bytes;
        auto pushVal = [&](void) {
            uint64_t raw = 0;
            if (at(TokKind::FloatLit)) {
                float f = advance().fval;
                uint32_t b;
                std::memcpy(&b, &f, sizeof(b));
                raw = b;
            } else {
                raw = static_cast<uint64_t>(expectInt());
            }
            for (unsigned i = 0; i < ebytes; ++i)
                bytes.push_back(static_cast<uint8_t>(raw >> (8 * i)));
        };
        if (acceptPunct("{")) {
            if (!checkPunct("}")) {
                pushVal();
                while (acceptPunct(","))
                    pushVal();
            }
            expectPunct("}");
        } else {
            pushVal();
        }
        if (bytes.size() > count * ebytes)
            error("initialiser longer than variable");
        bytes.resize(count * ebytes, 0);
        return bytes;
    }

    // --- Functions ---------------------------------------------------------

    ParamInfo
    parseParam()
    {
        if (!acceptIdent(".param"))
            error("expected .param");
        RegClass cls;
        unsigned ebytes;
        expectTypeToken(cls, ebytes);
        if (cls == RegClass::Pred)
            error("predicate parameters are not supported");
        ParamInfo p;
        p.kind = (cls == RegClass::B64) ? ParamKind::U64 : ParamKind::U32;
        p.name = expectIdent();
        return p;
    }

    FuncDecl
    parseFunc()
    {
        FuncDecl fn;
        fn.line = peek().line;
        if (acceptIdent(".entry"))
            fn.is_entry = true;
        else if (acceptIdent(".func"))
            fn.is_entry = false;
        else
            error("expected .entry or .func");

        // Optional return parameter: .func (.param .u32 out) name(...)
        if (!fn.is_entry && checkPunct("(")) {
            // Look ahead: return param only if next token is .param.
            size_t save = pos_;
            advance();
            if (checkIdent(".param")) {
                fn.has_ret = true;
                fn.ret = parseParam();
                expectPunct(")");
            } else {
                pos_ = save;
            }
        }

        fn.name = expectIdent();
        if (acceptPunct("(")) {
            if (!checkPunct(")")) {
                fn.params.push_back(parseParam());
                while (acceptPunct(","))
                    fn.params.push_back(parseParam());
            }
            expectPunct(")");
        }
        expectPunct("{");
        parseBody(fn);
        return fn;
    }

    void
    parseRegDecl(FuncDecl &fn)
    {
        RegClass cls;
        unsigned ebytes;
        expectTypeToken(cls, ebytes);
        while (true) {
            // %r<N> declares %r0 .. %r(N-1); a bare name declares one.
            std::string name = expectIdent();
            bool range = acceptPunct("<");
            int64_t n = range ? expectInt() : 1;
            if (range)
                expectPunct(">");
            if (n < 0 ||
                fn.regs.size() + static_cast<uint64_t>(n) > kMaxRegisters)
                error(strfmt("'%s' declares more than %llu registers",
                             fn.name.c_str(),
                             static_cast<unsigned long long>(kMaxRegisters)));
            if (range) {
                for (int64_t i = 0; i < n; ++i)
                    fn.regs[strfmt("%s%lld", name.c_str(),
                                   static_cast<long long>(i))] = cls;
            } else {
                fn.regs[name] = cls;
            }
            if (!acceptPunct(","))
                break;
        }
        expectPunct(";");
    }

    void
    parseLocalVar(FuncDecl &fn, bool shared)
    {
        VarDecl v = parseVar();
        if (shared)
            fn.shareds.push_back(std::move(v));
        else
            fn.locals.push_back(std::move(v));
    }

    AsmOperand
    parseOperand()
    {
        AsmOperand op;
        if (acceptPunct("[")) {
            op.kind = AsmOperand::Kind::Mem;
            std::string base = expectIdent();
            op.name = base;
            op.base_is_reg = base[0] == '%' && base != "%pt";
            if (acceptPunct("+"))
                op.ival = expectInt();
            else if (checkPunct("-"))
                op.ival = expectInt();
            expectPunct("]");
            return op;
        }
        if (at(TokKind::FloatLit)) {
            op.kind = AsmOperand::Kind::Float;
            op.fval = advance().fval;
            return op;
        }
        if (at(TokKind::IntLit) || checkPunct("-")) {
            op.kind = AsmOperand::Kind::Int;
            op.ival = expectInt();
            return op;
        }
        std::string id = expectIdent();
        op.name = id;
        op.kind = (id[0] == '%') ? AsmOperand::Kind::Reg
                                 : AsmOperand::Kind::Sym;
        return op;
    }

    void
    parseBody(FuncDecl &fn)
    {
        int loc_file = -1;
        int loc_line = 0;
        while (true) {
            if (acceptPunct("}"))
                return;
            if (at(TokKind::End))
                error("unterminated function body");
            if (acceptIdent(".reg")) {
                parseRegDecl(fn);
                continue;
            }
            if (acceptIdent(".local")) {
                parseLocalVar(fn, false);
                continue;
            }
            if (acceptIdent(".shared")) {
                parseLocalVar(fn, true);
                continue;
            }
            if (acceptIdent(".loc")) {
                loc_file = static_cast<int>(expectInt());
                loc_line = static_cast<int>(expectInt());
                if (at(TokKind::IntLit))
                    advance(); // optional column
                acceptPunct(";");
                continue;
            }
            // Label?
            if (at(TokKind::Ident) && toks_[pos_ + 1].kind == TokKind::Punct &&
                toks_[pos_ + 1].text == ":") {
                Stmt s;
                s.is_label = true;
                s.label = advance().text;
                advance(); // ':'
                fn.body.push_back(std::move(s));
                continue;
            }
            // Instruction.
            Stmt s;
            s.instr = parseInstr();
            s.instr.loc_file = loc_file;
            s.instr.loc_line = loc_line;
            fn.body.push_back(std::move(s));
        }
    }

    AsmInstr
    parseInstr()
    {
        AsmInstr in;
        in.line = peek().line;
        if (acceptPunct("@")) {
            in.pred_neg = acceptPunct("!");
            in.pred = expectIdent();
        }
        std::string mn = expectIdent();
        in.opcode = mn;

        if (mn == "call" || mn.rfind("call.", 0) == 0) {
            in.is_call = true;
            // call (%ret), callee, (%a, %b);  |  call callee, (%a);
            if (acceptPunct("(")) {
                in.call_ret = expectIdent();
                expectPunct(")");
                expectPunct(",");
            }
            in.callee = expectIdent();
            if (acceptPunct(",")) {
                expectPunct("(");
                if (!checkPunct(")")) {
                    in.call_args.push_back(expectIdent());
                    while (acceptPunct(","))
                        in.call_args.push_back(expectIdent());
                }
                expectPunct(")");
            }
            expectPunct(";");
            return in;
        }

        if (!checkPunct(";")) {
            in.ops.push_back(parseOperand());
            while (acceptPunct(","))
                in.ops.push_back(parseOperand());
        }
        expectPunct(";");
        return in;
    }

    std::vector<Token> toks_;
    size_t pos_ = 0;
};

} // namespace

ModuleDecl
parseModule(const std::string &source)
{
    return Parser(source).parse();
}

} // namespace nvbit::ptx
