(* .cmt typed tree -> per-function event trees (Summary.event).

   The walk is evaluation-order-approximate: sequences, lets and
   applications emit events in source order; match/if/try fork into
   Branch nodes so a lock released on one path is not considered
   released on the others; closure literals passed as arguments are
   assumed to run at the call site (the List.iter convention) except
   under known thread-starters (Thread.create, Domain.spawn), where
   the body starts with an empty held set; statically known functions
   that escape as values (arguments, list elements, partial
   applications) become Ref events, which the fork-after-domain rule
   treats as "runs at or after this point in program order" — that is
   precisely the approximation that lets the analyzer see the ordering
   convention inside an Alcotest.run suite list or the bench
   experiment registry. *)

open Typedtree
module S = Summary

(* ------------------------------------------------------------------ *)
(* Path normalization                                                  *)

(* "Stdlib__Mutex.lock" -> "Mutex.lock"; "Service__Queue.submit" ->
   "Service.Queue.submit".  Dune wraps library modules as Lib__Module;
   the double underscore never appears in this codebase's own idents. *)
let normalize_name s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && s.[!i] = '_' && s.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  let s = Buffer.contents b in
  if String.length s > 7 && String.sub s 0 7 = "Stdlib." then
    String.sub s 7 (String.length s - 7)
  else s

(* ------------------------------------------------------------------ *)
(* Walk environment                                                    *)

type env = {
  unit_name : string;
  top_ids : (Ident.t, string) Hashtbl.t;  (* top-level binding -> qname *)
  mutable local_fns : Ident.t list;       (* let-bound function literals *)
  mutable params : Ident.t list;          (* enclosing top-level fn params *)
  enclosing : string;                     (* short name of enclosing fn *)
  mutable guarded : bool;                 (* inside an EINTR guard *)
  mutable acc : S.event list ref;
  (* per-unit collectors *)
  signal_roots : string list ref;
  signal_installs : bool ref;
  pseudo_funcs : S.func list ref;         (* synthesized handler bodies *)
}

let emit env ev = env.acc := ev :: !(env.acc)
let events_of acc = List.rev !acc

let loc_of e = S.loc_of_location e.exp_loc

let is_arrow ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

(* The resolved, normalized name of an identifier — top-level values of
   the current unit come back qualified ("Service.Queue.locked"). *)
let ident_name env path =
  match path with
  | Path.Pident id -> (
    match Hashtbl.find_opt env.top_ids id with
    | Some q -> Some q
    | None -> None)
  | _ -> Some (normalize_name (Path.name path))

let is_local_fn env id = List.exists (fun i -> Ident.same i id) env.local_fns

let param_index env id =
  let rec go i = function
    | [] -> None
    | p :: rest -> if Ident.same p id then Some i else go (i + 1) rest
  in
  go 0 env.params

(* ------------------------------------------------------------------ *)
(* Lock classes                                                        *)

let type_head env ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
    match p with
    | Path.Pident id -> env.unit_name ^ "." ^ Ident.name id
    | _ -> normalize_name (Path.name p))
  | _ -> "?"

let lock_class env e =
  match e.exp_desc with
  | Texp_field (r, _, lbl) -> type_head env r.exp_type ^ "." ^ lbl.lbl_name
  | Texp_ident (Path.Pident id, _, _) when not (Hashtbl.mem env.top_ids id) ->
    env.unit_name ^ "." ^ env.enclosing ^ "." ^ Ident.name id
  | Texp_ident (path, _, _) -> (
    match ident_name env path with
    | Some n -> n
    | None -> env.unit_name ^ "." ^ env.enclosing ^ "." ^ Path.last path)
  | _ ->
    Printf.sprintf "%s.%s.<lock@%d>" env.unit_name env.enclosing
      (loc_of e).S.line

(* ------------------------------------------------------------------ *)
(* EINTR-pattern detection                                             *)

let pattern_mentions_eintr : type k. k general_pattern -> bool =
 fun pat ->
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      pat =
        (fun (type k) it (p : k general_pattern) ->
          (match p.pat_desc with
          | Tpat_construct (_, cd, _, _) ->
            if cd.Types.cstr_name = "EINTR" then found := true
          | _ -> ());
          Tast_iterator.default_iterator.pat it p);
    }
  in
  it.pat it pat;
  !found

(* ------------------------------------------------------------------ *)
(* Prim sets                                                           *)

let fresh_context_callees = [ "Thread.create"; "Domain.spawn" ]

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)

let rec walk env e =
  match e.exp_desc with
  | Texp_apply (fn, args) -> walk_apply env e fn args
  | Texp_ident (path, _, _) ->
    (* A statically known function escaping as a value. *)
    if is_arrow e.exp_type then (
      match path with
      | Path.Pident id when is_local_fn env id -> ()
      | Path.Pident id when param_index env id <> None -> ()
      | _ -> (
        match ident_name env path with
        | Some n when String.contains n '.' ->
          emit env (S.Ref { name = n; loc = loc_of e })
        | Some _ | None -> ()))
  | Texp_let (_, vbs, body) ->
    List.iter
      (fun vb ->
        (match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
        | Tpat_var (id, _), Texp_function _ -> env.local_fns <- id :: env.local_fns
        | _ -> ());
        walk env vb.vb_expr)
      vbs;
    walk env body
  | Texp_sequence (a, b) ->
    walk env a;
    walk env b
  | Texp_ifthenelse (c, a, b) ->
    walk env c;
    let alt_a = branch env (fun () -> walk env a) in
    let alt_b =
      branch env (fun () -> match b with Some b -> walk env b | None -> ())
    in
    emit env (S.Branch [ alt_a; alt_b ])
  | Texp_match (scrut, cases, _) ->
    let eintr =
      List.exists
        (fun c ->
          match Typedtree.split_pattern c.c_lhs with
          | _, Some exn_pat -> pattern_mentions_eintr exn_pat
          | _, None -> false)
        cases
    in
    with_guard env eintr (fun () -> walk env scrut);
    let alts =
      List.map
        (fun c ->
          branch env (fun () ->
              (match c.c_guard with Some g -> walk env g | None -> ());
              walk env c.c_rhs))
        cases
    in
    emit env (S.Branch alts)
  | Texp_try (body, cases) ->
    let eintr = List.exists (fun c -> pattern_mentions_eintr c.c_lhs) cases in
    with_guard env eintr (fun () -> walk env body);
    let alts =
      branch env (fun () -> ())
      :: List.map (fun c -> branch env (fun () -> walk env c.c_rhs)) cases
    in
    emit env (S.Branch alts)
  | Texp_function { cases; _ } ->
    (* A closure reached in expression position: its body is assumed
       to run here (invoke_fn_arg / ClosureArg route most closures
       before this point).  Multi-case [function] bodies fork like a
       match. *)
    let alts =
      List.map
        (fun c ->
          branch env (fun () ->
              (match c.c_guard with Some g -> walk env g | None -> ());
              walk env c.c_rhs))
        cases
    in
    emit env (S.Branch alts)
  | Texp_construct (lid, cd, args) ->
    (if cd.Types.cstr_name = "Signal_handle" then begin
       ignore lid;
       env.signal_installs := true;
       match args with
       | [ handler ] -> signal_handler env handler
       | _ -> ()
     end);
    List.iter (walk env) args
  | _ -> walk_children env e

and with_guard env flag f =
  if flag then begin
    let saved = env.guarded in
    env.guarded <- true;
    f ();
    env.guarded <- saved
  end
  else f ()

(* Run [f] with a fresh accumulator; return its events. *)
and branch env f =
  let saved = env.acc in
  let fresh = ref [] in
  env.acc <- fresh;
  f ();
  env.acc <- saved;
  events_of fresh

(* Register the handler function/closure installed via Signal_handle:
   its body becomes a pseudo-function so the eintr-unsafe rule can
   treat it as a signal root. *)
and signal_handler env handler =
  match handler.exp_desc with
  | Texp_ident (path, _, _) -> (
    match ident_name env path with
    | Some n -> env.signal_roots := n :: !(env.signal_roots)
    | None -> ())
  | Texp_function _ ->
    let name =
      Printf.sprintf "%s.<signal-handler@%d>" env.unit_name
        (loc_of handler).S.line
    in
    let body = branch env (fun () -> walk_children env handler) in
    env.pseudo_funcs :=
      { S.qname = name; floc = loc_of handler; events = body }
      :: !(env.pseudo_funcs);
    env.signal_roots := name :: !(env.signal_roots)
  | _ -> walk env handler

(* Emit the invocation of an argument that a known combinator calls:
   a closure literal is inlined (held set applies), an identifier
   becomes a Call event. *)
and invoke_fn_arg env arg =
  match arg.exp_desc with
  | Texp_function _ -> walk env arg
  | _ -> (
    match callee_of env arg with
    | Some c -> emit env (S.Call { callee = c; loc = loc_of arg; guarded = env.guarded })
    | None -> walk env arg)

and callee_of env fn =
  match fn.exp_desc with
  | Texp_ident (Path.Pident id, _, _) when is_local_fn env id ->
    None  (* body already inlined at its definition *)
  | Texp_ident (Path.Pident id, _, _) -> (
    match Hashtbl.find_opt env.top_ids id with
    | Some q -> Some (S.Global q)
    | None ->
      Some
        (S.Callback { name = Ident.name id; param_index = param_index env id }))
  | Texp_ident (path, _, _) -> (
    match ident_name env path with
    | Some n -> Some (S.Global n)
    | None -> None)
  | Texp_field (r, _, lbl) ->
    ignore r;
    Some (S.Callback { name = "." ^ lbl.Types.lbl_name; param_index = None })
  | _ -> None

and walk_apply env e fn args =
  let callee = callee_of env fn in
  let name = match callee with Some (S.Global n) -> Some n | _ -> None in
  let arg_exprs =
    List.filter_map (fun (lbl, a) -> Option.map (fun a -> (lbl, a)) a) args
  in
  let plain_arg i =
    match List.nth_opt arg_exprs i with Some (_, a) -> Some a | None -> None
  in
  match name with
  | Some ("Mutex.lock" | "Mutex.try_lock") -> (
    match plain_arg 0 with
    | Some m ->
      emit env (S.Acquire { lock = lock_class env m; loc = loc_of e })
    | None -> walk_generic_apply env e fn args)
  | Some "Mutex.unlock" -> (
    match plain_arg 0 with
    | Some m -> emit env (S.Release { lock = lock_class env m })
    | None -> walk_generic_apply env e fn args)
  | Some "Mutex.protect" -> (
    match (plain_arg 0, plain_arg 1) with
    | Some m, Some f ->
      let cls = lock_class env m in
      emit env (S.Acquire { lock = cls; loc = loc_of e });
      invoke_fn_arg env f;
      emit env (S.Release { lock = cls })
    | _ -> walk_generic_apply env e fn args)
  | Some "Condition.wait" -> (
    match (plain_arg 0, plain_arg 1) with
    | Some c, Some m ->
      emit env
        (S.Wait
           { cond = lock_class env c; mutex = lock_class env m; loc = loc_of e })
    | _ -> walk_generic_apply env e fn args)
  | Some "Fun.protect" ->
    let finally =
      List.find_opt
        (fun (lbl, _) ->
          match lbl with
          | Asttypes.Labelled "finally" | Asttypes.Optional "finally" -> true
          | _ -> false)
        arg_exprs
    in
    let main =
      List.find_opt
        (fun (lbl, _) ->
          match lbl with Asttypes.Nolabel -> true | _ -> false)
        arg_exprs
    in
    (match main with Some (_, f) -> invoke_fn_arg env f | None -> ());
    (match finally with Some (_, f) -> invoke_fn_arg env f | None -> ())
  | Some "Analysis.Runtime.retry_eintr" -> (
    match plain_arg 0 with
    | Some f -> with_guard env true (fun () -> invoke_fn_arg env f)
    | None -> ())
  | _ -> walk_generic_apply env e fn args

and walk_generic_apply env e fn args =
  let callee = callee_of env fn in
  let name = match callee with Some (S.Global n) -> Some n | _ -> None in
  (* Walk the callee expression itself when it is not an identifier
     (e.g. an application returning a function). *)
  (match fn.exp_desc with
  | Texp_ident _ -> ()
  | _ -> walk env fn);
  let arg_exprs =
    List.filter_map (fun (_, a) -> a) args
  in
  if is_arrow e.exp_type then begin
    (* Partial application: nothing runs now; the known callee escapes
       as a value. *)
    (match name with
    | Some n when String.contains n '.' ->
      emit env (S.Ref { name = n; loc = loc_of e })
    | _ -> ());
    List.iter (walk env) arg_exprs
  end
  else begin
    (* Non-closure arguments first (they may themselves be calls or
       escaping refs), then the call, then closure-literal arguments —
       which the callee is assumed to invoke at this point. *)
    List.iter
      (fun a ->
        match a.exp_desc with Texp_function _ -> () | _ -> walk env a)
      arg_exprs;
    (match callee with
    | Some c ->
      emit env (S.Call { callee = c; loc = loc_of e; guarded = env.guarded })
    | None -> ());
    let fresh =
      match name with
      | Some n -> List.mem n fresh_context_callees
      | None -> false
    in
    List.iteri
      (fun i a ->
        match a.exp_desc with
        | Texp_function _ ->
          let body = branch env (fun () -> walk env a) in
          emit env (S.ClosureArg { callee = name; index = i; fresh; body })
        | _ -> ())
      arg_exprs
  end

(* Generic structural recursion for everything without special
   handling: descend into immediate children, re-entering [walk]. *)
and walk_children env e =
  let it =
    {
      Tast_iterator.default_iterator with
      expr = (fun _ child -> walk env child);
      (* Do not descend into module expressions from an expression
         context (first-class modules): out of scope. *)
      module_expr = (fun _ _ -> ());
    }
  in
  Tast_iterator.default_iterator.expr it e

(* ------------------------------------------------------------------ *)
(* Suppressions                                                        *)

let parse_allow_payload (attr : Parsetree.attribute) =
  match attr.Parsetree.attr_payload with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                _ );
          _;
        };
      ] -> (
    match String.index_opt s ':' with
    | Some i when i > 0 ->
      let rule = String.trim (String.sub s 0 i) in
      let rationale =
        String.trim (String.sub s (i + 1) (String.length s - i - 1))
      in
      if rationale = "" || Ids.by_name rule = None then None
      else Some (rule, rationale)
    | Some _ | None -> None)
  | _ -> None

let collect_suppressions str =
  let sups = ref [] and bad = ref [] in
  let add (attrs : Parsetree.attributes) (region : Location.t) =
    List.iter
      (fun (attr : Parsetree.attribute) ->
        if attr.Parsetree.attr_name.txt = "dmflint.allow" then
          let aloc = S.loc_of_location attr.Parsetree.attr_loc in
          match parse_allow_payload attr with
          | Some (rule, rationale) ->
            sups :=
              {
                S.s_file = region.loc_start.Lexing.pos_fname;
                s_line_start = region.loc_start.Lexing.pos_lnum;
                s_line_end = region.loc_end.Lexing.pos_lnum;
                s_rule = rule;
                s_rationale = rationale;
                s_loc = aloc;
              }
              :: !sups
          | None -> bad := aloc :: !bad)
      attrs
  in
  let it =
    {
      Tast_iterator.default_iterator with
      value_binding =
        (fun it vb ->
          add vb.vb_attributes vb.vb_loc;
          Tast_iterator.default_iterator.value_binding it vb);
      expr =
        (fun it e ->
          add e.exp_attributes e.exp_loc;
          Tast_iterator.default_iterator.expr it e);
      structure_item =
        (fun it si ->
          (match si.str_desc with
          | Tstr_attribute attr ->
            (* Floating [@@@dmflint.allow ...]: whole-file scope. *)
            add [ attr ]
              {
                si.str_loc with
                loc_end =
                  { si.str_loc.loc_end with Lexing.pos_lnum = max_int };
              }
          | _ -> ());
          Tast_iterator.default_iterator.structure_item it si);
    }
  in
  it.structure it str;
  (!sups, !bad)

(* ------------------------------------------------------------------ *)
(* Structure -> unit_info                                              *)

let collect_top_ids unit_name str =
  let tbl = Hashtbl.create 64 in
  let rec pat_vars prefix p =
    match p.pat_desc with
    | Tpat_var (id, _) -> Hashtbl.replace tbl id (prefix ^ Ident.name id)
    | Tpat_alias (p, id, _) ->
      Hashtbl.replace tbl id (prefix ^ Ident.name id);
      pat_vars prefix p
    | Tpat_tuple ps -> List.iter (pat_vars prefix) ps
    | _ -> ()
  in
  let rec items prefix strc =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter (fun vb -> pat_vars prefix vb.vb_pat) vbs
        (* An [external] is a runtime primitive: a call to it is a
           call to a known global, never to a caller-supplied
           function. *)
        | Tstr_primitive vd ->
          Hashtbl.replace tbl vd.val_id (prefix ^ Ident.name vd.val_id)
        | Tstr_module mb -> sub prefix mb
        | Tstr_recmodule mbs -> List.iter (sub prefix) mbs
        | _ -> ())
      strc.str_items
  and sub prefix mb =
    let name =
      match mb.mb_id with Some id -> Ident.name id | None -> "_"
    in
    match mb.mb_expr.mod_desc with
    | Tmod_structure s -> items (prefix ^ name ^ ".") s
    | Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _) ->
      items (prefix ^ name ^ ".") s
    | _ -> ()
  in
  items (unit_name ^ ".") str;
  tbl

(* Peel the outer fun-chain of a top-level function, collecting the
   parameter idents in order; returns the innermost body. *)
let rec peel_params acc e =
  match e.exp_desc with
  | Texp_function { param; cases = [ c ]; _ } -> (
    ignore param;
    match c.c_guard with
    | Some _ -> (List.rev acc, Some e)
    | None ->
      let acc =
        match c.c_lhs.pat_desc with
        | Tpat_var (id, _) -> id :: acc
        | Tpat_alias (_, id, _) -> id :: acc
        | _ -> param :: acc
      in
      peel_params acc c.c_rhs)
  | _ -> (List.rev acc, Some e)

let of_structure ~modname str =
  let unit_name = normalize_name modname in
  let top_ids = collect_top_ids unit_name str in
  let signal_roots = ref [] in
  let signal_installs = ref false in
  let pseudo_funcs = ref [] in
  let mk_env enclosing acc =
    {
      unit_name;
      top_ids;
      local_fns = [];
      params = [];
      enclosing;
      guarded = false;
      acc;
      signal_roots;
      signal_installs;
      pseudo_funcs;
    }
  in
  let funcs = ref [] in
  let init_acc = ref [] in
  let rec do_items prefix strc =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
              | Tpat_var (id, _), Texp_function _ ->
                let qname =
                  match Hashtbl.find_opt top_ids id with
                  | Some q -> q
                  | None -> prefix ^ Ident.name id
                in
                let short = Ident.name id in
                let params, body = peel_params [] vb.vb_expr in
                let acc = ref [] in
                let env = mk_env short acc in
                env.params <- params;
                (match body with
                | Some b when b != vb.vb_expr -> walk env b
                | _ -> walk_children env vb.vb_expr);
                funcs :=
                  {
                    S.qname;
                    floc = S.loc_of_location vb.vb_loc;
                    events = events_of acc;
                  }
                  :: !funcs
              | _ ->
                (* Top-level effectful binding: part of module init, in
                   structure order. *)
                let env = mk_env "<init>" init_acc in
                walk env vb.vb_expr)
            vbs
        | Tstr_eval (e, _) ->
          let env = mk_env "<init>" init_acc in
          walk env e
        | Tstr_module mb -> do_sub prefix mb
        | Tstr_recmodule mbs -> List.iter (do_sub prefix) mbs
        | _ -> ())
      strc.str_items
  and do_sub prefix mb =
    let name =
      match mb.mb_id with Some id -> Ident.name id | None -> "_"
    in
    match mb.mb_expr.mod_desc with
    | Tmod_structure s -> do_items (prefix ^ name ^ ".") s
    | Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _) ->
      do_items (prefix ^ name ^ ".") s
    | _ -> ()
  in
  do_items (unit_name ^ ".") str;
  let init_events = events_of init_acc in
  let init_func =
    {
      S.qname = unit_name ^ ".<init>";
      floc = { S.file = ""; line = 0; col = 0 };
      events = init_events;
    }
  in
  let suppressions, bad = collect_suppressions str in
  {
    S.modname = unit_name;
    funcs = List.rev ((init_func :: !pseudo_funcs) @ !funcs);
    suppressions;
    bad_suppressions = bad;
    signal_roots = !signal_roots;
    installs_signal_handler = !signal_installs;
  }
