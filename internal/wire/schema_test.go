package wire

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite wire_schema.json to match the message types")

// schemaPath is the committed protocol shape, at the module root.
const schemaPath = "../../wire_schema.json"

// helloFlags are the Hello flag bits. TestWireSchema checks the list
// against the package's source: a new flag fails until it is listed.
var helloFlags = map[string]uint8{
	"HelloFlagPull":   HelloFlagPull,
	"HelloFlagLayers": HelloFlagLayers,
}

// wireSchema is the protocol's shape as wire_schema.json records it:
// every message struct and every struct its fields reach, with the
// encoded fields in declaration order, and the flag and type numbers.
type wireSchema struct {
	Messages []schemaMessage `json:"messages"`
	Flags    []schemaConst   `json:"flags"`
	Types    []schemaConst   `json:"types"`
}

type schemaMessage struct {
	Name   string        `json:"name"`
	Fields []schemaField `json:"fields"`
}

type schemaField struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type schemaConst struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// TestWireSchema keeps old peers decodable. Against the committed
// wire_schema.json, the committed fields of every message stay an exact
// prefix of its fields (new fields are appended, never removed,
// reordered, renamed or retyped), and every committed flag bit and
// message type keeps its value. A schema that only grew fails until it
// is recorded; a deliberate change of either kind is recorded with
//
//	go test ./internal/wire -run TestWireSchema -args -update
func TestWireSchema(t *testing.T) {
	cur := currentSchema(t)
	data, err := json.MarshalIndent(cur, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *update {
		if err := os.WriteFile(schemaPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	committed, err := os.ReadFile(schemaPath)
	if err != nil {
		t.Fatal(err)
	}
	var base wireSchema
	if err := json.Unmarshal(committed, &base); err != nil {
		t.Fatalf("%s: %v", schemaPath, err)
	}
	for _, b := range schemaBreaks(base, cur) {
		t.Errorf("%s: old peers break; rerun with -args -update only for a deliberate break", b)
	}
	if !t.Failed() && !bytes.Equal(committed, data) {
		t.Errorf("the wire schema grew: record it with go test ./internal/wire -run TestWireSchema -args -update")
	}
}

// currentSchema reflects over the message types newMessage makes.
func currentSchema(t *testing.T) wireSchema {
	var s wireSchema
	pkg := reflect.TypeFor[MsgType]().PkgPath()
	structs := map[string]reflect.Type{}
	var reach func(rt reflect.Type)
	reach = func(rt reflect.Type) {
		for rt.Kind() == reflect.Slice || rt.Kind() == reflect.Array || rt.Kind() == reflect.Pointer {
			rt = rt.Elem()
		}
		if rt.Kind() != reflect.Struct || rt.PkgPath() != pkg || structs[rt.Name()] != nil {
			return
		}
		structs[rt.Name()] = rt
		for i := 0; i < rt.NumField(); i++ {
			reach(rt.Field(i).Type)
		}
	}
	for i := 0; i < 256; i++ {
		m, err := newMessage(MsgType(i))
		if err != nil {
			continue
		}
		s.Types = append(s.Types, schemaConst{Name: "Type" + MsgType(i).String(), Value: int64(i)})
		reach(reflect.TypeOf(m))
	}
	for name, rt := range structs {
		m := schemaMessage{Name: name}
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			m.Fields = append(m.Fields, schemaField{Name: f.Name, Type: typeName(f.Type, pkg)})
		}
		s.Messages = append(s.Messages, m)
	}
	for _, name := range sourceFlags(t) {
		v, ok := helloFlags[name]
		if !ok {
			t.Fatalf("flag %s is not in helloFlags: add it", name)
		}
		s.Flags = append(s.Flags, schemaConst{Name: name, Value: int64(v)})
	}
	sort.Slice(s.Messages, func(i, j int) bool { return s.Messages[i].Name < s.Messages[j].Name })
	sort.Slice(s.Flags, func(i, j int) bool { return s.Flags[i].Name < s.Flags[j].Name })
	sort.Slice(s.Types, func(i, j int) bool { return s.Types[i].Name < s.Types[j].Name })
	return s
}

// typeName spells a field type as go/types does relative to this
// package. byte and uint8 are one type at run time; a byte slice is
// spelled []byte, a lone byte uint8, as the committed file has them.
func typeName(rt reflect.Type, pkg string) string {
	switch {
	case rt.Name() != "" && (rt.PkgPath() == pkg || rt.PkgPath() == ""):
		return rt.Name()
	case rt.Name() != "":
		return rt.PkgPath() + "." + rt.Name()
	case rt.Kind() == reflect.Slice && rt.Elem() == reflect.TypeFor[byte]():
		return "[]byte"
	case rt.Kind() == reflect.Slice:
		return "[]" + typeName(rt.Elem(), pkg)
	case rt.Kind() == reflect.Array:
		return fmt.Sprintf("[%d]%s", rt.Len(), typeName(rt.Elem(), pkg))
	case rt.Kind() == reflect.Pointer:
		return "*" + typeName(rt.Elem(), pkg)
	}
	return rt.String()
}

// sourceFlags lists the constants the package's source names *Flag*.
func sourceFlags(t *testing.T) []string {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
				for _, s := range gd.Specs {
					for _, id := range s.(*ast.ValueSpec).Names {
						if strings.Contains(id.Name, "Flag") {
							names = append(names, id.Name)
						}
					}
				}
			}
		}
	}
	return names
}

// schemaBreaks lists every way cur breaks the committed base.
func schemaBreaks(base, cur wireSchema) []string {
	var out []string
	msgs := map[string][]schemaField{}
	for _, m := range cur.Messages {
		msgs[m.Name] = m.Fields
	}
	for _, bm := range base.Messages {
		fields, ok := msgs[bm.Name]
		if !ok {
			out = append(out, fmt.Sprintf("message %s was removed", bm.Name))
			continue
		}
		for i, bf := range bm.Fields {
			if i == len(fields) {
				out = append(out, fmt.Sprintf("message %s lost committed field %s %s", bm.Name, bf.Name, bf.Type))
				break
			}
			if fields[i] != bf {
				out = append(out, fmt.Sprintf("message %s field %d changed from %s %s to %s %s",
					bm.Name, i, bf.Name, bf.Type, fields[i].Name, fields[i].Type))
				break
			}
		}
	}
	out = append(out, constBreaks("flag", base.Flags, cur.Flags)...)
	return append(out, constBreaks("message type", base.Types, cur.Types)...)
}

func constBreaks(what string, base, cur []schemaConst) []string {
	var out []string
	values := map[string]int64{}
	for _, c := range cur {
		values[c.Name] = c.Value
	}
	for _, b := range base {
		if v, ok := values[b.Name]; !ok {
			out = append(out, fmt.Sprintf("%s %s (= %d) was removed", what, b.Name, b.Value))
		} else if v != b.Value {
			out = append(out, fmt.Sprintf("%s %s changed from %d to %d", what, b.Name, b.Value, v))
		}
	}
	return out
}
