open Eof_rtos

let ty_of_arg_type = function
  | Api.A_int { min; max } -> Ast.Ty_int { min; max }
  | Api.A_flags flags -> Ast.Ty_flags flags
  | Api.A_str { max_len } -> Ast.Ty_str { max_len }
  | Api.A_buf { max_len } -> Ast.Ty_buf { max_len }
  | Api.A_ptr { base; size; null_ok } -> Ast.Ty_ptr { base; size; null_ok }
  | Api.A_res kind -> Ast.Ty_res kind

let of_api (table : Api.table) =
  let calls =
    List.map
      (fun (e : Api.entry) ->
        {
          Ast.name = e.Api.name;
          args = List.map (fun (n, ty) -> (n, ty_of_arg_type ty)) e.Api.args;
          ret = (match e.Api.ret with `Resource k -> Some k | `Status -> None);
          weight = e.Api.weight;
          doc = e.Api.doc;
        })
      table.Api.entries
  in
  { Ast.os = table.Api.os; resources = Api.resource_kinds table; calls }

let syzlang_of_api table = Ast.to_syzlang (of_api table)

(* Parse + validate, memoized on the synthesized text. Every campaign
   over the same OS personality re-derives the identical spec (and a
   farm does so once per board), so the ~60 µs parse is paid once per
   distinct personality instead of once per init. Keying on the text —
   not the table — is what makes the cache safe: any table change
   changes the text. The result [Ast.t] is immutable, so sharing one
   value across campaigns is sound; the mutex covers builds an embedder
   may race from multiple domains. *)
(* [Stdlib.Mutex], not the RTOS personality's kernel object of the same
   name brought in by [open Eof_rtos]. *)
let memo_lock = Stdlib.Mutex.create ()

let memo : (string, (Ast.t, string) result) Hashtbl.t = Hashtbl.create 8

let validated_of_text text =
  match Parser.parse text with
  | Error e -> Error (Printf.sprintf "synthesized spec failed to parse: %s" e)
  | Ok spec ->
    (match Check.validate spec with
     | Ok spec -> Ok spec
     | Error errs ->
       Error
         (Printf.sprintf "synthesized spec failed validation: %s"
            (String.concat "; " (List.map Check.error_to_string errs))))

let validated_of_api table =
  let text = syzlang_of_api table in
  Stdlib.Mutex.protect memo_lock (fun () ->
      match Hashtbl.find_opt memo text with
      | Some r -> r
      | None ->
        if Hashtbl.length memo >= 32 then Hashtbl.reset memo;
        let r = validated_of_text text in
        Hashtbl.replace memo text r;
        r)

let index_map (spec : Ast.t) (table : Api.table) =
  let indexed = List.mapi (fun i (e : Api.entry) -> (e.Api.name, i)) table.Api.entries in
  List.filter_map
    (fun (call : Ast.call) ->
      match List.assoc_opt call.Ast.name indexed with
      | Some i -> Some (call, i)
      | None -> None)
    spec.Ast.calls
