package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
)

// wireevolve pins the wire protocol's evolution rules. The codec
// (internal/wire) keeps old clients decodable by construction: encoded
// struct fields may only ever be appended after the existing ones
// (trailing optional fields, as CellData.Layers and Hello.Scene were),
// never reordered, removed, or retyped; Hello flag bits and message
// type numbers are append-only. The check extracts the current message
// schema from the wire package's type information and diffs it against
// the committed wire_schema.json — any divergence from the committed
// prefix is a finding, and intentional (additive) evolution is recorded
// by regenerating the file with `vollint -update`.

var analyzerWireEvolve = &Analyzer{
	Name: "wireevolve",
	Doc: "wire messages may only evolve by appending trailing fields; flag bits and " +
		"message type numbers are append-only, checked against committed wire_schema.json",
	Run: runWireEvolve,
}

// WireSchema is the serialized protocol shape.
type WireSchema struct {
	Messages []WireMessage `json:"messages"`
	Flags    []WireConst   `json:"flags"`
	Types    []WireConst   `json:"types"`
}

// WireMessage is one message (or message-referenced) struct with its
// encoded fields in declaration order.
type WireMessage struct {
	Name   string      `json:"name"`
	Fields []WireField `json:"fields"`
}

// WireField is one encoded field.
type WireField struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// WireConst is one flag bit or message type number.
type WireConst struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

func runWireEvolve(p *Pass) {
	var wirePkg *Package
	for _, pkg := range p.Pkgs {
		if pkg.Path == wirePkgPath {
			wirePkg = pkg
		}
	}
	if wirePkg == nil {
		return // wire not among the analyzed packages
	}
	cur, pos := extractWireSchema(wirePkg)
	if p.Opts.SchemaPath == "" {
		return // shape-only mode: nothing committed to diff against
	}
	data, err := os.ReadFile(p.Opts.SchemaPath)
	if err != nil {
		p.Reportf(wirePkg.Files[0].Package, "run `vollint -update` to commit the current wire schema",
			"no committed wire schema at %s", p.Opts.SchemaPath)
		return
	}
	var base WireSchema
	if err := json.Unmarshal(data, &base); err != nil {
		p.Reportf(wirePkg.Files[0].Package, "run `vollint -update` to regenerate it",
			"committed wire schema %s is unreadable: %v", p.Opts.SchemaPath, err)
		return
	}
	diffWireSchema(p, wirePkg, base, cur, pos)
}

// diffWireSchema reports every way cur breaks the committed baseline.
func diffWireSchema(p *Pass, pkg *Package, base, cur WireSchema, pos map[string]token.Pos) {
	anchor := func(key string) token.Pos {
		if at, ok := pos[key]; ok {
			return at
		}
		return pkg.Files[0].Package
	}
	curMsgs := map[string]WireMessage{}
	for _, m := range cur.Messages {
		curMsgs[m.Name] = m
	}
	for _, bm := range base.Messages {
		cm, ok := curMsgs[bm.Name]
		if !ok {
			p.Reportf(anchor(""), "restore the message (old peers still send it) or run `vollint -update` for a deliberate break",
				"wire message %s was removed from the protocol", bm.Name)
			continue
		}
		for i, bf := range bm.Fields {
			if i >= len(cm.Fields) {
				p.Reportf(anchor("msg:"+bm.Name),
					"restore the field — committed encoded fields cannot be dropped — or run `vollint -update` for a deliberate break",
					"wire message %s lost committed trailing field %s %s", bm.Name, bf.Name, bf.Type)
				break
			}
			cf := cm.Fields[i]
			if cf != bf {
				p.Reportf(anchor(fmt.Sprintf("msg:%s.%d", bm.Name, i)),
					"new fields may only be appended after the committed ones; run `vollint -update` only for a deliberate break",
					"wire message %s field %d changed from %s %s to %s %s (committed fields must stay a prefix)",
					bm.Name, i, bf.Name, bf.Type, cf.Name, cf.Type)
				break
			}
		}
	}
	diffConsts(p, anchor, "flag", base.Flags, cur.Flags)
	diffConsts(p, anchor, "message type", base.Types, cur.Types)
}

func diffConsts(p *Pass, anchor func(string) token.Pos, what string, base, cur []WireConst) {
	curBy := map[string]int64{}
	for _, c := range cur {
		curBy[c.Name] = c.Value
	}
	for _, b := range base {
		v, ok := curBy[b.Name]
		switch {
		case !ok:
			p.Reportf(anchor(""), "committed wire "+what+" names are append-only; run `vollint -update` only for a deliberate break",
				"wire %s %s (= %d) was removed", what, b.Name, b.Value)
		case v != b.Value:
			p.Reportf(anchor("const:"+b.Name), "wire "+what+" values are append-only and immutable; run `vollint -update` only for a deliberate break",
				"wire %s %s changed value from %d to %d", what, b.Name, b.Value, v)
		}
	}
}

// extractWireSchema derives the protocol schema from the wire package's
// types: message structs are those with a Type() MsgType method, plus
// every struct they reference in their fields (CellRef); flags are the
// integer consts with "Flag" in their name; types are the MsgType
// consts. Returns the schema plus an anchor-position index for findings.
func extractWireSchema(pkg *Package) (WireSchema, map[string]token.Pos) {
	var schema WireSchema
	pos := map[string]token.Pos{}
	scope := pkg.Types.Scope()

	// The field-position index comes from the AST.
	structAST := map[string]*ast.StructType{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				structAST[ts.Name.Name] = st
			}
			return true
		})
	}

	isMsgType := func(t types.Type) bool {
		named, ok := t.(*types.Named)
		return ok && named.Obj().Pkg() == pkg.Types && named.Obj().Name() == "MsgType"
	}

	// Message structs: Type() MsgType in the pointer method set.
	var msgNames []string
	refs := map[string]bool{}
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < ms.Len(); i++ {
			fn, ok := ms.At(i).Obj().(*types.Func)
			if !ok || fn.Name() != "Type" {
				continue
			}
			sig := fn.Type().(*types.Signature)
			if sig.Results().Len() == 1 && isMsgType(sig.Results().At(0).Type()) {
				msgNames = append(msgNames, name)
			}
		}
	}
	// Structs referenced by message fields ride along (their layout is
	// part of the encoding too).
	for _, name := range msgNames {
		collectFieldStructRefs(pkg, name, refs)
	}
	for name := range refs {
		found := false
		for _, m := range msgNames {
			if m == name {
				found = true
			}
		}
		if !found {
			msgNames = append(msgNames, name)
		}
	}
	sort.Strings(msgNames)

	qual := types.RelativeTo(pkg.Types)
	for _, name := range msgNames {
		named := scope.Lookup(name).Type().(*types.Named)
		st := named.Underlying().(*types.Struct)
		m := WireMessage{Name: name}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			m.Fields = append(m.Fields, WireField{Name: f.Name(), Type: types.TypeString(f.Type(), qual)})
			if ix := i; structAST[name] != nil {
				if fieldPos := structFieldPos(structAST[name], ix); fieldPos != token.NoPos {
					pos[fmt.Sprintf("msg:%s.%d", name, ix)] = fieldPos
				}
			}
		}
		schema.Messages = append(schema.Messages, m)
		pos["msg:"+name] = named.Obj().Pos()
	}

	// Consts: flags by name, MsgType values by type.
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		v, exact := constInt64(c)
		if !exact {
			continue
		}
		switch {
		case isMsgType(c.Type()):
			schema.Types = append(schema.Types, WireConst{Name: name, Value: v})
			pos["const:"+name] = c.Pos()
		case strings.Contains(name, "Flag"):
			schema.Flags = append(schema.Flags, WireConst{Name: name, Value: v})
			pos["const:"+name] = c.Pos()
		}
	}
	sort.Slice(schema.Flags, func(i, j int) bool { return schema.Flags[i].Name < schema.Flags[j].Name })
	sort.Slice(schema.Types, func(i, j int) bool { return schema.Types[i].Name < schema.Types[j].Name })
	return schema, pos
}

// collectFieldStructRefs adds every same-package struct type reachable
// from the named struct's fields.
func collectFieldStructRefs(pkg *Package, name string, refs map[string]bool) {
	obj := pkg.Types.Scope().Lookup(name)
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		t := st.Field(i).Type()
		for {
			switch u := t.(type) {
			case *types.Slice:
				t = u.Elem()
				continue
			case *types.Array:
				t = u.Elem()
				continue
			case *types.Pointer:
				t = u.Elem()
				continue
			}
			break
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() != pkg.Types {
			continue
		}
		if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
			continue
		}
		if !refs[named.Obj().Name()] {
			refs[named.Obj().Name()] = true
			collectFieldStructRefs(pkg, named.Obj().Name(), refs)
		}
	}
}

// structFieldPos returns the position of the i'th field (flattening
// multi-name field groups).
func structFieldPos(st *ast.StructType, i int) token.Pos {
	n := 0
	for _, f := range st.Fields.List {
		names := len(f.Names)
		if names == 0 {
			names = 1 // embedded
		}
		if i < n+names {
			if len(f.Names) > 0 {
				return f.Names[i-n].Pos()
			}
			return f.Pos()
		}
		n += names
	}
	return token.NoPos
}

// constInt64 extracts an exact integer constant value.
func constInt64(c *types.Const) (int64, bool) {
	v := c.Val()
	if v == nil {
		return 0, false
	}
	if i, ok := intConstValue(v.ExactString()); ok {
		return i, true
	}
	return 0, false
}

func intConstValue(s string) (int64, bool) {
	var v int64
	_, err := fmt.Sscanf(s, "%d", &v)
	return v, err == nil
}

// WriteWireSchema extracts the current schema from the wire package
// among pkgs and writes it to path (used by `vollint -update`). It is a
// no-op when the wire package is not loaded.
func WriteWireSchema(pkgs []*Package, path string) error {
	for _, pkg := range pkgs {
		if pkg.Path != wirePkgPath {
			continue
		}
		schema, _ := extractWireSchema(pkg)
		data, err := json.MarshalIndent(schema, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(data, '\n'), 0o644)
	}
	return nil
}
